"""Process-parallel fault sharding over shared-memory batch arrays.

Fault simulation runs under the GIL, so in-process threads simulate at
roughly single-core speed.  This module is the multi-core layer — the
fault universe of one batch is LPT-partitioned (deterministically, by
:func:`~repro.faults.fsim._partition_faults`) across ``multiprocessing``
worker processes, and the batch's good-value and pattern arrays are
placed in a ``multiprocessing.shared_memory`` block so every worker
attaches zero-copy instead of re-simulating the good machine or paying a
pickle of ``n_nets * words`` words per shard.

Execution model:

* the **parent** compiles the plan, simulates (or cache-serves) the
  good machine exactly as the serial path does, packs ``good1`` /
  ``good2`` / ``frame1`` / ``frame2`` into one CRC-checksummed shared
  block, and dispatches one pickled ``(indices, faults)`` shard per
  worker;
* each **worker** attaches the block by name, verifies the CRC (a
  corrupted block is *detected*, never silently simulated), rebuilds the
  backend context over zero-copy views, runs the same
  ``_simulate_one`` / ``_simulate_one_wide`` per-fault propagation the
  serial path runs, and returns ``(fault index, detect word)`` pairs
  plus an :class:`~repro.utils.observability.EngineStats` delta;
* the parent merges detect words by fault index and folds the worker
  deltas into one per-call stats instance — exactly the serial
  per-call merge discipline — so results and semantic counters are
  bit-identical to a serial run.

Nothing in a worker draws randomness: shard composition, merge order
and propagation are all index-deterministic, so worker count and shard
order can never change a detect word (the differential and property
suites lock this in).

Worker pools are cached per ``(circuit identity, topology, workers)``
and reused across the many batches one ATPG run issues; a topology
change (resynthesis) retires the stale pool.  On POSIX the pool forks,
so workers inherit the parent's compiled plan for free; on spawn-only
platforms the circuit is pickled once per pool.

Failure handling is explicit, never silent:

* *unavailable* process execution (no shared memory, unpicklable
  faults, pool creation failure) raises :class:`ProcessExecUnavailable`,
  which :func:`~repro.faults.fsim.fault_simulate` turns into a coded
  warning plus a serial fallback;
* a **worker death** mid-shard (SIGKILL, OOM) shuts the broken pool
  down, unlinks the shared block, and raises :class:`WorkerCrashError`
  — a clear error the runner's per-task retry machinery can retry;
* a **corrupted shared block** (CRC mismatch on attach — the
  ``fsim.shm_block`` chaos seam injects exactly this) is repaired once
  by rebuilding the block from the parent's pristine arrays (counted on
  ``EngineStats.cache_integrity_failures`` with a degradation record);
  a second consecutive corruption raises :class:`SharedMemoryCorruption`;
* a **hung worker** (deadlock, pathological shard — the
  ``psim.shard_start`` chaos seam injects exactly this) is caught by the
  supervision layer (:mod:`repro.utils.supervise`) when
  ``REPRO_SUPERVISE_SHARD_TIMEOUT`` or a task deadline is active:
  workers bump a per-shard heartbeat slot appended after the block's
  CRC-covered payload, the parent polls futures with bounded waits, and
  a stale shard gets its pool killed and rebuilt with the lost shards
  re-run once (``MC-WORKER-HUNG`` / ``MC-SHARD-RETRY`` warnings,
  ``hung_workers`` / ``shard_retries`` counters) before a second hang
  raises :class:`~repro.utils.supervise.WorkerHungError`; repeated
  process-layer failures open a circuit breaker per
  ``(backend, topology)`` that rejects further attempts with
  ``MC-BREAKER-OPEN`` until a timed half-open probe succeeds.

Every shared segment is named ``repro_mc_*`` and unlinked in a
``finally`` block, so ``/dev/shm`` holds no orphans after a run — the CI
leak check greps for the prefix, and an :func:`atexit` emergency hook
additionally unlinks any block still live when the interpreter exits
abnormally mid-batch.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import weakref
import zlib
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import multiprocessing as mp

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - stdlib always has it on 3.8+
    shared_memory = None  # type: ignore[assignment]

import numpy as np

from repro.faults.model import Fault
from repro.library.cell import StandardCell
from repro.netlist.circuit import Circuit
from repro.netlist.simulator import CompiledCircuit
from repro.netlist.vsim import (
    BACKEND_EVENT,
    BACKEND_WIDE,
    pack_word,
    unpack_word,
    wide_good_values,
    wide_mask,
    words_for,
)
from repro.utils import seams
from repro.utils.observability import EngineStats, warn_coded
from repro.utils.supervise import (
    CODE_BREAKER_OPEN,
    CODE_SHARD_RETRY,
    CODE_WORKER_HUNG,
    SuperviseConfig,
    WorkerHungError,
    active_core_share,
    breaker_for,
    resolve_supervision,
    supervise_futures,
)

SHM_PREFIX = "repro_mc_"

# Warning / error codes surfaced through EngineStats.warnings and error
# messages (see repro.utils.observability.warn_coded).
CODE_NO_SHM = "MC-FALLBACK-SHM"
CODE_UNPICKLABLE = "MC-FALLBACK-PICKLE"
CODE_NO_POOL = "MC-FALLBACK-POOL"
CODE_WORKER_CRASH = "MC-WORKER-CRASH"
CODE_SHM_CORRUPT = "MC-SHM-CORRUPT"
CODE_TRACKER_UNREG = "MC-TRACKER-UNREG"


class ProcessExecUnavailable(RuntimeError):
    """Process execution cannot run here; callers fall back with a warning."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class WorkerCrashError(RuntimeError):
    """A worker process died mid-shard (after cleanup of its resources)."""


class SharedMemoryCorruption(RuntimeError):
    """A shared good-value block failed its CRC verification."""


# ----------------------------------------------------------------------
# Shared-memory block: good1 | good2 | frame1 | frame2, uint64 rows
# ----------------------------------------------------------------------
_SHM_COUNTER = itertools.count()


def shm_supported() -> bool:
    """Probe (once) whether POSIX shared memory works in this environment.

    Only the failures that genuinely mean "no shared memory here" —
    ``OSError`` (``/dev/shm`` missing, read-only, or out of space) and
    ``ValueError`` (a platform rejecting the segment size) — count as an
    unsupported environment, and the reason is kept in
    :func:`shm_probe_error` so the eventual ``MC-FALLBACK-SHM`` warning
    says *why* process execution degraded.  Anything else (a typo-level
    ``TypeError``, a ``KeyboardInterrupt``) propagates: a probe bug must
    not silently demote every run to serial.
    """
    global _SHM_PROBE, _SHM_PROBE_ERROR
    if _SHM_PROBE is None:
        if shared_memory is None:
            _SHM_PROBE = False
            _SHM_PROBE_ERROR = "multiprocessing.shared_memory not importable"
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=8)
                probe.close()
                probe.unlink()
                _SHM_PROBE = True
            except (OSError, ValueError) as exc:
                _SHM_PROBE = False
                _SHM_PROBE_ERROR = f"{type(exc).__name__}: {exc}"
    return _SHM_PROBE


def shm_probe_error() -> Optional[str]:
    """Why :func:`shm_supported` returned False (None when it passed)."""
    return _SHM_PROBE_ERROR


_SHM_PROBE: Optional[bool] = None
_SHM_PROBE_ERROR: Optional[str] = None


class SharedBatchBlock:
    """One batch's arrays in a named shared segment, CRC-checksummed.

    Rows (all ``words`` uint64 wide, little-endian): ``n_nets`` rows of
    frame-1 good values, ``n_nets`` of frame-2 good values, then
    ``n_pis`` packed frame-1 and ``n_pis`` frame-2 pattern words.  The
    CRC is computed over the payload *after* writing and carried
    out-of-band in each shard task, so block rot cannot forge its own
    checksum.

    When *hb_slots* is non-zero, one uint64 **heartbeat** slot per shard
    is appended *after* the CRC-covered payload: workers bump their slot
    as they make progress and the parent's supervisor loop reads them
    via :meth:`heartbeats` to distinguish a slow shard from a hung one.
    The slots live outside the checksummed range on purpose — they
    mutate while shards run, and they are advisory-only (a torn or
    garbage beat can at worst delay hang detection by one poll, never
    corrupt a result).
    """

    def __init__(self, shm, rows: int, words: int, n_nets: int, crc: int,
                 hb_slots: int = 0):
        self.shm = shm
        self.rows = rows
        self.words = words
        self.n_nets = n_nets
        self.crc = crc
        self.hb_slots = hb_slots
        self._unlinked = False

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def nbytes(self) -> int:
        return self.rows * self.words * 8

    @classmethod
    def create(
        cls,
        good1: np.ndarray,
        good2: np.ndarray,
        frame1: np.ndarray,
        frame2: np.ndarray,
        hb_slots: int = 0,
    ) -> "SharedBatchBlock":
        n_nets, words = good1.shape
        rows = 2 * n_nets + 2 * len(frame1)
        nbytes = rows * words * 8
        shm = None
        try:
            for _ in range(8):
                name = f"{SHM_PREFIX}{os.getpid()}_{next(_SHM_COUNTER)}"
                try:
                    shm = shared_memory.SharedMemory(
                        create=True, size=nbytes + 8 * hb_slots, name=name
                    )
                    break
                except FileExistsError:
                    continue
            if shm is None:
                raise ProcessExecUnavailable(
                    CODE_NO_SHM, "could not allocate a unique shared segment"
                )
        except ProcessExecUnavailable:
            raise
        except Exception as exc:
            raise ProcessExecUnavailable(
                CODE_NO_SHM, f"shared memory unavailable: {exc}"
            ) from exc
        view = np.ndarray((rows, words), dtype=np.uint64, buffer=shm.buf)
        view[:n_nets] = good1
        view[n_nets:2 * n_nets] = good2
        view[2 * n_nets:2 * n_nets + len(frame1)] = frame1
        view[2 * n_nets + len(frame1):] = frame2
        if hb_slots:
            hb = np.ndarray(
                (hb_slots,), dtype=np.uint64, buffer=shm.buf, offset=nbytes
            )
            hb[:] = 0
        crc = zlib.crc32(shm.buf[:nbytes])
        block = cls(shm, rows, words, n_nets, crc, hb_slots)
        _LIVE_SEGMENTS.add(block)
        if seams.active:
            # Chaos seam: a harness may corrupt the block *after* the
            # checksum is recorded, modelling rot between the parent's
            # write and a worker's read; the worker-side CRC check must
            # catch it.
            seams.fire("fsim.shm_block", block=block, view=view)
        return block

    def heartbeats(self) -> Dict[int, int]:
        """Current per-shard heartbeat values (supervisor-side read)."""
        if not self.hb_slots or self._unlinked:
            return {}
        hb = np.ndarray(
            (self.hb_slots,), dtype=np.uint64, buffer=self.shm.buf,
            offset=self.nbytes,
        )
        return {i: int(hb[i]) for i in range(self.hb_slots)}

    def close(self) -> None:
        """Release the parent's mapping and unlink the segment (idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self.shm.close()
        finally:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass


def _attach(name: str, stats: Optional[EngineStats] = None):
    """Worker-side attach that leaves unlinking to the parent.

    Attaching registers the segment with a resource tracker.  Under the
    fork start method the workers share the *parent's* tracker process,
    where the duplicate registration is a no-op and must be left alone
    (unregistering would clobber the parent's own bookkeeping).  Under
    spawn each worker runs its own tracker, which would unlink — and
    warn about — a segment the parent still owns when the worker exits,
    so there the registration is withdrawn.

    A failed withdrawal is survivable (the segment just gets a spurious
    tracker unlink attempt at worker exit) but never silent: it lands as
    a coded ``MC-TRACKER-UNREG`` warning on *stats*, which the parent
    merges into the batch's stats like any other worker delta.
    """
    shm = shared_memory.SharedMemory(name=name)
    if not _WORKER_STATE.get("shared_tracker", True):
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except (ImportError, AttributeError, KeyError, ValueError,
                OSError) as exc:
            warn_coded(
                stats, CODE_TRACKER_UNREG,
                f"could not withdraw segment {name} from this worker's "
                f"resource tracker ({type(exc).__name__}: {exc}); the "
                f"tracker may log a spurious unlink at worker exit",
            )
    return shm


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_WORKER_STATE: Dict[str, object] = {}


def _worker_init(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    shared_tracker: bool,
) -> None:
    _WORKER_STATE["circuit"] = circuit
    _WORKER_STATE["cells"] = cells
    _WORKER_STATE["plan"] = None
    _WORKER_STATE["shared_tracker"] = shared_tracker


def _worker_plan() -> CompiledCircuit:
    """The worker's compiled plan, without touching cross-thread locks.

    A forked worker usually inherits the parent's plan via the module
    plan cache; it is read directly (the child is single-threaded, so
    the lock the parent uses to guard concurrent mutation is both
    unnecessary and — having been forked in an unknown state — unsafe
    to acquire).  A miss (spawn start method, or a plan the parent
    never built) compiles locally and caches per worker.
    """
    plan = _WORKER_STATE.get("plan")
    circuit = _WORKER_STATE["circuit"]
    cells = _WORKER_STATE["cells"]
    if plan is not None and plan.valid_for(circuit, cells):
        return plan
    from repro.netlist.simulator import _PLAN_CACHE

    plan = _PLAN_CACHE.get(circuit)
    if plan is None or not plan.valid_for(circuit, cells):
        plan = CompiledCircuit(circuit, cells)
    _WORKER_STATE["plan"] = plan
    return plan


def _run_shard(blob: bytes) -> Tuple[List[Tuple[int, int]], EngineStats]:
    """Simulate one shard against the shared block; returns (pairs, delta)."""
    task = pickle.loads(blob)
    if seams.active:
        # Robustness-test seam (fires in the worker): a handler may
        # SIGKILL this process to model a mid-shard worker death.
        seams.fire(
            "psim.shard", indices=task["indices"], pid=os.getpid()
        )
    plan = _worker_plan()
    stats = EngineStats()
    shm = _attach(task["name"], stats)
    try:
        nbytes = task["rows"] * task["words"] * 8
        if zlib.crc32(shm.buf[:nbytes]) != task["crc"]:
            raise SharedMemoryCorruption(
                f"{CODE_SHM_CORRUPT}: shared block {task['name']} failed "
                f"CRC verification on attach"
            )
        shard = task.get("shard", 0)
        hb = None
        if task.get("hb_slots"):
            # The heartbeat slots sit after the CRC-covered payload; a
            # bump per fault is the liveness signal the parent-side
            # supervisor watches (any change counts — wraparound and
            # torn reads are harmless because the beats are advisory).
            hb = np.ndarray(
                (task["hb_slots"],), dtype=np.uint64, buffer=shm.buf,
                offset=nbytes,
            )
            hb[shard] += 1
        if seams.active:
            # Chaos seam for the supervision layer: handlers hang or
            # slow this shard (and may scribble on the heartbeat row)
            # to exercise stall detection, pool rebuild, and retry.
            seams.fire(
                "psim.shard_start",
                shard=shard,
                indices=task["indices"],
                pid=os.getpid(),
                heartbeats=hb,
            )
        view = np.ndarray(
            (task["rows"], task["words"]), dtype=np.uint64, buffer=shm.buf
        )
        view.flags.writeable = False
        n_nets = task["n_nets"]
        g1 = view[:n_nets]
        g2 = view[n_nets:2 * n_nets]
        out = []
        if task["backend"] == BACKEND_WIDE:
            from repro.faults.vfsim import _simulate_one_wide, _WideContext

            mask = wide_mask(task["n"], task["words"])
            ctx = _WideContext(plan, mask, task["words"], g1, g2)
            for i, fault in zip(task["indices"], task["faults"]):
                out.append((i, _simulate_one_wide(ctx, fault)))
                if hb is not None:
                    hb[shard] += 1
            stats.vector_ops += ctx.vector_ops
        else:
            from repro.faults.fsim import _simulate_one, _SimContext

            good1 = [unpack_word(row) for row in g1]
            good2 = [unpack_word(row) for row in g2]
            mask = (1 << task["n"]) - 1
            ctx = _SimContext(plan, mask, good1, good2)
            for i, fault in zip(task["indices"], task["faults"]):
                out.append((i, _simulate_one(ctx, fault)))
                if hb is not None:
                    hb[shard] += 1
            stats.events_propagated += ctx.events
        return out, stats
    finally:
        shm.close()


# ----------------------------------------------------------------------
# Pool cache: one pool per (circuit identity, topology, workers)
# ----------------------------------------------------------------------
_POOLS: "OrderedDict[Tuple[int, int], Tuple[ProcessPoolExecutor, object, object, object]]" = (
    OrderedDict()
)
_MAX_POOLS = 2


def _make_pool(
    circuit: Circuit, cells: Mapping[str, StandardCell], workers: int
) -> ProcessPoolExecutor:
    methods = mp.get_all_start_methods()
    method = "fork" if "fork" in methods else None
    try:
        ctx = mp.get_context(method)
    except ValueError as exc:  # pragma: no cover - method list just probed
        raise ProcessExecUnavailable(
            CODE_NO_POOL, f"no usable start method: {exc}"
        ) from exc
    if method != "fork":
        # Spawned workers pickle the initargs; surface an unpicklable
        # circuit here as a typed condition instead of a broken pool.
        try:
            pickle.dumps((circuit, cells))
        except Exception as exc:
            raise ProcessExecUnavailable(
                CODE_UNPICKLABLE, f"circuit/cells not picklable: {exc}"
            ) from exc
    try:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(circuit, cells, method == "fork"),
        )
    except Exception as exc:
        raise ProcessExecUnavailable(
            CODE_NO_POOL, f"could not start a process pool: {exc}"
        ) from exc


def _pool_for(
    circuit: Circuit, cells: Mapping[str, StandardCell], workers: int
) -> ProcessPoolExecutor:
    key = (id(circuit), workers)
    entry = _POOLS.get(key)
    if entry is not None:
        pool, held_circuit, token, held_cells = entry
        if (
            held_circuit is circuit
            and held_cells is cells
            and token is circuit.topology_token()
        ):
            _POOLS.move_to_end(key)
            return pool
        # Stale pool (the circuit mutated): its forked workers hold an
        # outdated copy of the netlist.  Retire it.
        del _POOLS[key]
        pool.shutdown(wait=False, cancel_futures=True)
    pool = _make_pool(circuit, cells, workers)
    _POOLS[key] = (pool, circuit, circuit.topology_token(), cells)
    while len(_POOLS) > _MAX_POOLS:
        _, (old, *_rest) = _POOLS.popitem(last=False)
        old.shutdown(wait=False, cancel_futures=True)
    return pool


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    for key, entry in list(_POOLS.items()):
        if entry[0] is pool:
            del _POOLS[key]
    pool.shutdown(wait=False, cancel_futures=True)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly retire *pool*: SIGKILL its workers, then shut it down.

    The graceful ``shutdown`` used by :func:`_discard_pool` leaves a
    *hung* worker running (the executor only asks workers to exit once
    their current item finishes — which a hung item never does), so the
    supervisor must kill the worker processes directly before the
    executor's bookkeeping is torn down.
    """
    for key, entry in list(_POOLS.items()):
        if entry[0] is pool:
            del _POOLS[key]
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.kill()
        except Exception:  # pragma: no cover - worker already gone
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut every cached worker pool down (test hook / atexit)."""
    while _POOLS:
        _, (pool, *_rest) = _POOLS.popitem(last=False)
        pool.shutdown(wait=False, cancel_futures=True)


# Every live shared segment owner (SharedBatchBlock, and the ATPG
# TestBoard via register_segment) — weak, so normal `close()` in the
# happy-path ``finally`` blocks remains the owner's job and collected
# blocks drop out on their own.
_LIVE_SEGMENTS: "weakref.WeakSet" = weakref.WeakSet()


def register_segment(owner) -> None:
    """Track *owner* (anything with an idempotent ``close()``) for
    emergency unlinking at interpreter exit."""
    _LIVE_SEGMENTS.add(owner)


def _emergency_cleanup() -> None:
    """atexit backstop: release pools and unlink still-live segments.

    The happy path closes every block in a ``finally`` and CI greps
    ``/dev/shm`` for leaks, but an abnormal exit mid-batch (unhandled
    exception in the driver thread, ``sys.exit`` from a signal handler)
    used to orphan the current block and leave pool workers running.
    ``close()`` is idempotent, so double-closing a block that already
    went through its ``finally`` is safe.
    """
    shutdown_pools()
    for owner in list(_LIVE_SEGMENTS):
        try:
            owner.close()
        except Exception:  # pragma: no cover - best-effort at exit
            pass


atexit.register(_emergency_cleanup)


# ----------------------------------------------------------------------
# Parent-side driver
# ----------------------------------------------------------------------
def _parent_arrays(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    batch,
    backend: str,
    stats: EngineStats,
) -> Tuple[CompiledCircuit, np.ndarray, np.ndarray, int]:
    """Plan plus (n_nets, words) good-value arrays for *batch*.

    The wide backend's arrays come straight from the shared
    backend-tagged good-value LRU; the event backend's Python-int
    vectors are packed into little-endian words (the worker unpacks
    them back, so event detect words stay arbitrary-precision exact).
    """
    words = words_for(batch.n)
    if backend == BACKEND_WIDE:
        from repro.faults.vfsim import wide_batch_key

        plan = CompiledCircuit.get(circuit, cells, stats=stats)
        mask = wide_mask(batch.n, words)
        key = wide_batch_key(plan, batch, words)
        good1, good2 = wide_good_values(
            plan, key, (batch.frame1, batch.frame2), mask, words,
            stats=stats,
        )
        return plan, good1, good2, words
    from repro.faults.fsim import _make_context

    ctx = _make_context(circuit, cells, batch, stats=stats)
    good1 = np.vstack([pack_word(v, words) for v in ctx.good1])
    good2 = np.vstack([pack_word(v, words) for v in ctx.good2])
    return ctx.plan, good1, good2, words


def process_fault_simulate(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    batch,  # PatternBatch; untyped to avoid a circular import with fsim
    *,
    workers: int,
    backend: str = BACKEND_EVENT,
    stats: Optional[EngineStats] = None,
) -> List[int]:
    """Per-fault detect words over one batch, sharded across processes.

    Same contract as :func:`repro.faults.fsim.fault_simulate` and
    bit-identical to its serial path for the same batch and backend.
    Raises :class:`ProcessExecUnavailable` when process execution cannot
    run here (callers fall back with a coded warning),
    :class:`WorkerCrashError` when a worker dies mid-shard, and
    :class:`SharedMemoryCorruption` when the shared block fails CRC
    verification twice in a row.
    """
    if not shm_supported():
        reason = shm_probe_error() or "unknown probe failure"
        raise ProcessExecUnavailable(
            CODE_NO_SHM,
            f"multiprocessing.shared_memory is not functional ({reason})",
        )
    from repro.faults.fsim import _fault_site_index, _partition_faults

    local = EngineStats()
    # Dispatch-time renegotiation against the campaign core ledger: a
    # task that started with 4 in-flight peers and now runs alone widens
    # to the full machine on this batch; a newly crowded ledger shrinks
    # it.  Unmanaged callers (no lease, no static share) keep *workers*.
    share = active_core_share()
    if share is not None:
        workers = max(1, min(workers, share))
        local.ledger_grants += 1
        local.ledger_workers = max(local.ledger_workers, workers)
    plan, good1, good2, words = _parent_arrays(
        circuit, cells, batch, backend, local
    )
    local.batches += 1
    if backend == BACKEND_WIDE:
        local.wide_batches += 1
        local.words_per_batch = max(local.words_per_batch, words)
    local.faults_simulated += len(faults)

    chunks = _partition_faults(plan, faults, workers)
    cone = plan.cone_sizes()
    costs = []
    for fault in faults:
        idx = _fault_site_index(plan, fault)
        costs.append(cone[idx] if idx is not None else 1)
    loads = [sum(costs[i] for i in chunk) for chunk in chunks]
    total = sum(loads)
    if total and chunks:
        local.shard_imbalance = max(
            local.shard_imbalance, max(loads) / (total / len(chunks))
        )

    frame1 = np.vstack(
        [pack_word(batch.frame1.get(pi, 0), words) for pi in plan.pi_order]
    ) if plan.pi_order else np.zeros((0, words), dtype=np.uint64)
    frame2 = np.vstack(
        [pack_word(batch.frame2.get(pi, 0), words) for pi in plan.pi_order]
    ) if plan.pi_order else np.zeros((0, words), dtype=np.uint64)

    sup = resolve_supervision()
    # The topology token is an identity-compared object; its id (plus
    # the circuit name for readability) is the hashable stand-in, so a
    # resynthesized circuit gets a fresh health score.
    bkey = ("fsim", backend, circuit.name, id(circuit.topology_token()))
    breaker = breaker_for(bkey, sup)
    if breaker is not None and not breaker.allow():
        if stats is not None:
            stats.breaker_state[str(bkey)] = breaker.state
        raise ProcessExecUnavailable(
            CODE_BREAKER_OPEN,
            f"process execution breaker is open for {bkey} after "
            f"{breaker.failures} consecutive process-layer failures; "
            f"next half-open probe in "
            f"{breaker.seconds_until_probe():.1f}s",
        )
    try:
        results = _dispatch_shards(
            circuit, cells, faults, batch, chunks, good1, good2,
            frame1, frame2, words, workers, backend, sup, local,
        )
    except (WorkerCrashError, SharedMemoryCorruption, WorkerHungError):
        # Only process-layer failures feed the breaker's health score:
        # an *unavailable* environment (no shm, unpicklable faults)
        # fails instantly and deterministically, so tripping the
        # breaker for it would add nothing.
        if breaker is not None:
            breaker.record_failure()
            if stats is not None:
                stats.breaker_state[str(bkey)] = breaker.state
        raise
    except BaseException:
        if breaker is not None:
            breaker.cancel_probe()
        raise
    if breaker is not None:
        breaker.record_success()
        local.breaker_state[str(bkey)] = breaker.state
    local.proc_shards += len(chunks)
    if stats is not None:
        stats.merge(local)
    return results


def _dispatch_shards(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    batch,
    chunks: Sequence[Sequence[int]],
    good1: np.ndarray,
    good2: np.ndarray,
    frame1: np.ndarray,
    frame2: np.ndarray,
    words: int,
    workers: int,
    backend: str,
    sup: SuperviseConfig,
    local: EngineStats,
) -> List[int]:
    """Submit *chunks*, supervise them, and assemble the detect words.

    Recovery loop: a CRC-corrupted block is rebuilt once from the
    parent's pristine arrays (every shard re-runs against the fresh
    block); a hung shard gets its pool killed and rebuilt, and only the
    *lost* shards (hung plus collaterally-killed in-flight siblings)
    are re-submitted once.  Shard outputs are staged per shard id and
    committed only after every shard has succeeded, so neither retry
    can merge a worker delta — or a detect word — twice.
    """
    pool = _pool_for(circuit, cells, workers)
    local.proc_workers = max(local.proc_workers, workers)
    shard_timeout = sup.effective_timeout()
    results: List[int] = [0] * len(faults)
    staged: Dict[int, Tuple[List[Tuple[int, int]], EngineStats]] = {}
    pending = list(range(len(chunks)))
    corruption_retried = False
    hang_retried = False
    while pending:
        block = SharedBatchBlock.create(
            good1, good2, frame1, frame2, hb_slots=len(chunks)
        )
        local.shm_bytes += block.nbytes
        try:
            futures: Dict[int, Future] = {}
            for s in pending:
                chunk = chunks[s]
                task = {
                    "name": block.name,
                    "rows": block.rows,
                    "words": words,
                    "n_nets": block.n_nets,
                    "crc": block.crc,
                    "n": batch.n,
                    "backend": backend,
                    "indices": chunk,
                    "faults": [faults[i] for i in chunk],
                    "shard": s,
                    "hb_slots": len(chunks),
                }
                try:
                    blob = pickle.dumps(task)
                except Exception as exc:
                    raise ProcessExecUnavailable(
                        CODE_UNPICKLABLE,
                        f"fault shard not picklable: {exc}",
                    ) from exc
                futures[s] = pool.submit(_run_shard, blob)
            try:
                done, hung = supervise_futures(
                    futures,
                    block.heartbeats,
                    shard_timeout=shard_timeout,
                    poll_s=sup.poll_s,
                    stats=local,
                )
                for s in done:
                    staged[s] = futures[s].result()
                if hung:
                    local.hung_workers += len(hung)
                    _kill_pool(pool)
                    lost = [s for s in pending if s not in staged]
                    if hang_retried:
                        raise WorkerHungError(
                            f"{len(hung)} fault-simulation shard(s) hung "
                            f"past the {shard_timeout:.2f}s deadline again "
                            f"after a pool rebuild; giving up on process "
                            f"execution for this batch",
                            hung_workers=local.hung_workers,
                            shard_retries=local.shard_retries,
                        )
                    hang_retried = True
                    warn_coded(
                        local, CODE_WORKER_HUNG,
                        f"reaped {len(hung)} hung fault-simulation "
                        f"worker(s) on {circuit.name} (no heartbeat for "
                        f"{shard_timeout:.2f}s); pool killed and rebuilt",
                    )
                    warn_coded(
                        local, CODE_SHARD_RETRY,
                        f"re-running {len(lost)} lost shard(s) on a "
                        f"fresh pool (one-shot retry before the "
                        "serial fallback)",
                    )
                    local.shard_retries += len(lost)
                    pool = _pool_for(circuit, cells, workers)
                    pending = lost
                    continue
                pending = []
            except BrokenProcessPool as exc:
                _discard_pool(pool)
                raise WorkerCrashError(
                    f"{CODE_WORKER_CRASH}: a fault-simulation worker died "
                    f"mid-shard ({exc}); its shared segment was unlinked — "
                    f"re-run the batch (the runner's retry policy does "
                    f"this per task)"
                ) from exc
            except SharedMemoryCorruption:
                # Every future has settled (the supervisor waits for
                # all of them before results are read), and the block
                # is shared — siblings fail the same check, so the
                # whole round is discarded and re-run.
                if not corruption_retried:
                    corruption_retried = True
                    local.cache_integrity_failures += 1
                    local.degradations.append(
                        f"psim[{circuit.name}]: shared good-value block "
                        f"{block.name} failed CRC verification; rebuilt "
                        f"from the parent's pristine arrays"
                    )
                    staged.clear()
                    pending = list(range(len(chunks)))
                    continue
                raise
        finally:
            block.close()
    for s in sorted(staged):
        out, delta = staged[s]
        local.merge(delta)
        for i, word in out:
            results[i] = word
    return results

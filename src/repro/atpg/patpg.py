"""Process-parallel deterministic ATPG: site-sharded SAT phase.

PR 6 made fault *simulation* multi-core; this module does the same for
the deterministic SAT phase of :func:`repro.atpg.engine.run_atpg`, which
dominates end-to-end resynthesis time.  The site-sorted representative
faults are partitioned into **site-cohesive shards** (whole sites, LPT
by summed output-cone size, using the same cone-cost model as
:func:`repro.faults.fsim._partition_faults`), and each shard runs on a
worker process from the cached forked pool of :mod:`repro.faults.psim`
with its own **persistent** :class:`~repro.atpg.incremental.
IncrementalAtpg` — learned-clause reuse stays high within a shard, and
the worker's solver (good-circuit encoding included) survives across
shard tasks of the same circuit topology.

Cross-shard ``pending_drop`` economics are preserved by a **test
board**: one lock-free shared-memory block with a single-writer region
per shard.  A worker publishes each SAT-discovered test pair as a row
of packed PI words followed by a store to its own published-pair
counter; before paying for further SAT calls it polls the other shards'
counters and fault-simulates any fresh foreign pairs against its
remaining classes, exactly like the serial phase's periodic drop pass.
The board needs no locks and no CRC because it is an *optimization
only*: fault-simulating any bit pattern is sound (a pattern that
detects fault F proves F detectable; a torn or stale read merely fails
to drop a class that a later exact SAT call decides anyway).  All
authoritative verdicts and test pairs travel through the pickled task
results, never through the board.

Verdict identity with the serial phase is structural, not scheduled:
an unbudgeted SAT decision is exact, so DETECTED is precisely the set
of detectable faults and UNDETECTABLE precisely the proved-impossible
set no matter how faults are interleaved, dropped early, or sharded —
the partitions are bit-identical to serial by construction (the
differential suite locks this over all bench circuits).  Under a
per-fault budget every worker enforces the same per-fault allowance
serial would grant (budgets are per-decision, so sharding never
*increases* any fault's resources), aborts stay conservative
(never counted undetectable), and the parent runs a final authoritative
upgrade pass simulating every discovered test against the aborted
residue so cross-shard tests can still upgrade aborts to detected.

Failure handling mirrors :mod:`repro.faults.psim`: unavailable process
execution raises :class:`~repro.faults.psim.ProcessExecUnavailable`, a
worker death mid-shard (the ``atpg.shard`` chaos seam injects exactly
this) raises :class:`~repro.faults.psim.WorkerCrashError` after the
broken pool is retired and the board unlinked; ``run_atpg`` turns
either into the coded ``MC-FALLBACK-ATPG`` warning and reruns the phase
serially on untouched state.  Worker ``EngineStats`` deltas and solver
effort snapshots are staged and merged only after every shard
succeeded.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.atpg.budget import AtpgBudget
from repro.atpg.compaction import TestPair
from repro.atpg.incremental import IncrementalAtpg, fault_site_net
from repro.faults.model import Fault
from repro.faults.psim import (
    CODE_NO_SHM,
    CODE_UNPICKLABLE,
    ProcessExecUnavailable,
    SharedMemoryCorruption,
    WorkerCrashError,
    _attach,
    _discard_pool,
    _kill_pool,
    _pool_for,
    _WORKER_STATE,
    SHM_PREFIX,
    register_segment,
    shm_supported,
)
from repro.library.cell import StandardCell
from repro.netlist.circuit import Circuit
from repro.netlist.simulator import CompiledCircuit
from repro.netlist.vsim import EXEC_SERIAL, pack_word, unpack_word
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

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - stdlib always has it on 3.8+
    shared_memory = None  # type: ignore[assignment]

# Coded warning emitted by run_atpg when the parallel phase falls back.
CODE_FALLBACK_ATPG = "MC-FALLBACK-ATPG"

# Below this many representative faults the per-worker solver encodings
# cost more than the SAT work they split; run_atpg keeps the phase
# serial (no warning — this is policy, not failure).
MIN_PARALLEL_SAT_FAULTS = 8

# Same flush cadence as the serial phase's pending_drop economics.
_DROP_EVERY = 16


# ----------------------------------------------------------------------
# Lock-free cross-shard test board
# ----------------------------------------------------------------------
class TestBoard:
    """Shared block of published test pairs, one single-writer region per shard.

    Layout (uint64 throughout): ``nshards`` published-pair counters,
    ``nshards`` supervision heartbeats, then the concatenated shard
    regions; shard *s* owns ``caps[s]`` rows of ``2 * pi_words`` words
    (frame-1 then frame-2 PI bits, packed in ``circuit.inputs`` order).
    Worker *s* writes a row, then stores its counter — it is the only
    writer of both, so no synchronization is needed.  Readers may
    observe a torn row or a stale counter; both are harmless because
    the board only feeds fault simulation, which is sound for arbitrary
    patterns (see the module docstring).  The heartbeat row is equally
    advisory: workers bump their slot per SAT decision and per drop
    batch, and the parent's supervisor only compares values for change
    — a torn or garbage beat can at worst delay hang detection by one
    poll.
    """

    def __init__(self, shm, caps: Sequence[int], pi_words: int):
        self.shm = shm
        self.caps = list(caps)
        self.pi_words = pi_words
        self.offsets: List[int] = []
        acc = 0
        for c in self.caps:
            self.offsets.append(acc)
            acc += c
        self.total_rows = acc
        self._unlinked = False

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def nbytes(self) -> int:
        return (
            16 * len(self.caps) + self.total_rows * 2 * self.pi_words * 8
        )

    @classmethod
    def create(cls, caps: Sequence[int], pi_words: int) -> "TestBoard":
        nbytes = 16 * len(caps) + sum(caps) * 2 * pi_words * 8
        try:
            shm = shared_memory.SharedMemory(
                create=True,
                size=max(8, nbytes),
                name=f"{SHM_PREFIX}atpg_{os.getpid()}_{id(caps) & 0xFFFF}",
            )
        except FileExistsError:
            shm = shared_memory.SharedMemory(create=True, size=max(8, nbytes))
        except Exception as exc:
            raise ProcessExecUnavailable(
                CODE_NO_SHM, f"shared memory unavailable: {exc}"
            ) from exc
        shm.buf[: 16 * len(caps)] = b"\x00" * (16 * len(caps))
        board = cls(shm, caps, pi_words)
        register_segment(board)
        return board

    def heartbeats(self) -> Dict[int, int]:
        """Current per-shard heartbeat values (supervisor-side read)."""
        if self._unlinked or not self.caps:
            return {}
        hb = np.ndarray(
            (len(self.caps),), dtype=np.uint64, buffer=self.shm.buf,
            offset=8 * len(self.caps),
        )
        return {i: int(hb[i]) for i in range(len(self.caps))}

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


def _pack_pair(
    pair: TestPair, pi_order: Sequence[str], pi_words: int
) -> np.ndarray:
    v1, v2 = pair
    f1 = 0
    f2 = 0
    for i, pi in enumerate(pi_order):
        f1 |= (v1.get(pi, 0) & 1) << i
        f2 |= (v2.get(pi, 0) & 1) << i
    row = np.empty(2 * pi_words, dtype=np.uint64)
    row[:pi_words] = pack_word(f1, pi_words)
    row[pi_words:] = pack_word(f2, pi_words)
    return row


def _unpack_pair_row(
    row: np.ndarray, pi_order: Sequence[str], pi_words: int
) -> TestPair:
    f1 = unpack_word(row[:pi_words])
    f2 = unpack_word(row[pi_words:])
    v1 = {pi: (f1 >> i) & 1 for i, pi in enumerate(pi_order)}
    v2 = {pi: (f2 >> i) & 1 for i, pi in enumerate(pi_order)}
    return v1, v2


# ----------------------------------------------------------------------
# Site-cohesive LPT sharding
# ----------------------------------------------------------------------
def site_shards(
    circuit: Circuit,
    plan: CompiledCircuit,
    faults: Sequence[Fault],
    workers: int,
) -> List[List[Fault]]:
    """Partition *faults* into at most *workers* site-cohesive shards.

    All faults sharing a site net land in the same shard, so each
    shard's engine encodes (and retires) every site cone exactly once —
    splitting a site would duplicate its cone encoding across workers
    and break the single-active-cone scan the engine relies on.  Site
    groups are LPT-assigned by summed cone cost (the process
    fault-sim partitioner's cost model) and each shard is sorted by
    ``(site, fault_id)``, the serial phase's scan order.  Deterministic:
    no randomness, ties broken by site key then shard index.
    """
    from repro.faults.fsim import _fault_site_index

    cone = plan.cone_sizes()
    groups: Dict[str, List[Fault]] = {}
    costs: Dict[str, int] = {}
    for fault in faults:
        site = fault_site_net(circuit, fault) or ""
        groups.setdefault(site, []).append(fault)
        idx = _fault_site_index(plan, fault)
        costs[site] = costs.get(site, 0) + (
            cone[idx] if idx is not None else 1
        )
    order = sorted(groups, key=lambda s: (-costs[s], s))
    n = min(workers, len(groups))
    shards: List[List[Fault]] = [[] for _ in range(n)]
    loads = [0] * n
    for site in order:
        tgt = min(range(n), key=lambda i: (loads[i], i))
        shards[tgt].extend(groups[site])
        loads[tgt] += costs[site]
    for shard in shards:
        shard.sort(key=lambda f: (fault_site_net(circuit, f) or "", f.fault_id))
    return [s for s in shards if s]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_atpg_engine() -> IncrementalAtpg:
    """This worker's persistent incremental engine for the pool's circuit.

    Keyed by topology token so a stale engine (the parent resynthesized
    and — somehow — kept the pool) is rebuilt rather than trusted; in
    practice :func:`~repro.faults.psim._pool_for` retires pools on
    topology change, so the engine survives for the lifetime of the
    circuit and its learned clauses and good-circuit encoding amortize
    across every shard task the worker receives.
    """
    circuit = _WORKER_STATE["circuit"]
    cells = _WORKER_STATE["cells"]
    token = circuit.topology_token()
    engine = _WORKER_STATE.get("atpg_engine")
    if (
        engine is None
        or _WORKER_STATE.get("atpg_engine_token") != token
        or engine.circuit is not circuit
    ):
        engine = IncrementalAtpg(circuit, cells)
        _WORKER_STATE["atpg_engine"] = engine
        _WORKER_STATE["atpg_engine_token"] = token
    return engine


def _run_sat_shard(blob: bytes) -> Dict[str, object]:
    """Decide one shard's faults; returns records, tests and effort deltas.

    Runs the exact serial scan loop (site-sorted faults, pending-drop
    flush every 16 discoveries or at end-of-shard, aborted-behind-index
    upgrade) against this worker's persistent engine, publishing each
    discovered pair to the test board and folding foreign pairs into
    every drop pass.  In-worker fault simulation is strictly serial —
    nested pools are never created.  Fork safety: the pool's workers
    fork while the parent sits in the dispatch path, where the plan and
    good-value cache locks are free, so the worker may use the ordinary
    locked simulation entry points.
    """
    task = pickle.loads(blob)
    if seams.active:
        # Robustness-test seam (fires in the worker): a handler may
        # SIGKILL this process to model a mid-shard SAT worker death.
        seams.fire(
            "atpg.shard",
            shard=task["shard"],
            n_faults=len(task["faults"]),
            pid=os.getpid(),
        )
    from repro.atpg.compaction import TestPair  # noqa: F401 (typing only)
    from repro.faults.fsim import PatternBatch, fault_simulate

    circuit = _WORKER_STATE["circuit"]
    cells = _WORKER_STATE["cells"]
    engine = _worker_atpg_engine()
    faults: List[Fault] = task["faults"]
    budget: Optional[AtpgBudget] = task["budget"]
    backend: str = task["backend"]
    batch_size: int = task["batch_size"]
    shard: int = task["shard"]
    caps: List[int] = task["caps"]
    pi_words: int = task["pi_words"]
    nshards = len(caps)
    pi_order = tuple(circuit.inputs)
    row_words = 2 * pi_words

    shm = _attach(task["board"])
    try:
        counters = np.ndarray((nshards,), dtype=np.uint64, buffer=shm.buf)
        hb = np.ndarray(
            (nshards,), dtype=np.uint64, buffer=shm.buf, offset=8 * nshards
        )
        hb[shard] += 1
        if seams.active:
            # Chaos seam for the supervision layer: handlers hang or
            # slow this shard, or scribble a torn partial write into
            # the board's counter/heartbeat words, to exercise stall
            # detection and the board's torn-read soundness.
            seams.fire(
                "atpg.shard_start",
                shard=shard,
                pid=os.getpid(),
                counters=counters,
                heartbeats=hb,
            )
        offsets: List[int] = task["offsets"]
        total_rows = task["total_rows"]
        rows = (
            np.ndarray(
                (total_rows, row_words),
                dtype=np.uint64,
                buffer=shm.buf,
                offset=16 * nshards,
            )
            if total_rows
            else None
        )

        published = 0

        def publish(pair: TestPair) -> None:
            nonlocal published
            if rows is None or published >= caps[shard]:
                return
            rows[offsets[shard] + published] = _pack_pair(
                pair, pi_order, pi_words
            )
            published += 1
            # Counter store is the publication point; the row write
            # above happens-before it from this (single) writer's view.
            counters[shard] = published

        cursors = [0] * nshards

        def fetch_foreign() -> List[TestPair]:
            if rows is None:
                return []
            fresh: List[TestPair] = []
            for s in range(nshards):
                if s == shard:
                    continue
                avail = min(int(counters[s]), caps[s])
                while cursors[s] < avail:
                    fresh.append(
                        _unpack_pair_row(
                            rows[offsets[s] + cursors[s]], pi_order, pi_words
                        )
                    )
                    cursors[s] += 1
            return fresh

        stats = EngineStats()
        before = engine.effort()
        status: Dict[str, str] = {}
        abort_reasons: Dict[str, str] = {}
        my_tests: List[TestPair] = []
        pending: List[TestPair] = []
        aborted_ids: Set[str] = set()
        dropped: Set[str] = set()
        sat_calls = 0
        i = 0
        while i < len(faults):
            fault = faults[i]
            i += 1
            if fault.fault_id in dropped:
                continue
            sat_calls += 1
            hb[shard] += 1
            detectable, pair = engine.decide(fault, budget)
            if detectable:
                my_tests.append(pair)
                pending.append(pair)
                status[fault.fault_id] = "detected"
                publish(pair)
            elif detectable is False:
                status[fault.fault_id] = "undetectable"
            else:
                status[fault.fault_id] = "aborted"
                aborted_ids.add(fault.fault_id)
                stats.sat_aborts += 1
                reason = (
                    getattr(engine, "last_abort_reason", None) or "unknown"
                )
                abort_reasons[fault.fault_id] = reason
                stats.sat_abort_reasons[reason] = \
                    stats.sat_abort_reasons.get(reason, 0) + 1
            at_end = i == len(faults)
            if len(pending) >= _DROP_EVERY or at_end or i % _DROP_EVERY == 0:
                drop_pairs = pending + fetch_foreign()
                pending = []
                if not drop_pairs:
                    continue
                todo = [
                    f for f in faults[i:] if f.fault_id not in dropped
                ]
                todo.extend(
                    f for f in faults[:i] if f.fault_id in aborted_ids
                )
                for lo in range(0, len(drop_pairs), batch_size):
                    if not todo:
                        break
                    hb[shard] += 1
                    chunk = drop_pairs[lo:lo + batch_size]
                    batch = PatternBatch.from_pairs(circuit, chunk)
                    words = fault_simulate(
                        circuit, cells, todo, batch,
                        workers=1, stats=stats, backend=backend,
                        exec_mode=EXEC_SERIAL,
                    )
                    still: List[Fault] = []
                    for f, w in zip(todo, words):
                        if w:
                            dropped.add(f.fault_id)
                            # sat_aborts counts abort *events* (serial
                            # semantics): an upgraded abort stays counted.
                            aborted_ids.discard(f.fault_id)
                            abort_reasons.pop(f.fault_id, None)
                            status.setdefault(f.fault_id, "dropped")
                            if status[f.fault_id] == "aborted":
                                status[f.fault_id] = "dropped"
                        else:
                            still.append(f)
                    todo = still
        after = engine.effort()
        return {
            "shard": shard,
            "status": status,
            "abort_reasons": abort_reasons,
            "tests": my_tests,
            "sat_calls": sat_calls,
            "effort": {k: after[k] - before[k] for k in after},
            "stats": stats,
        }
    finally:
        shm.close()


# ----------------------------------------------------------------------
# Parent-side driver
# ----------------------------------------------------------------------
@dataclass
class ParallelSatOutcome:
    """Merged result of the sharded SAT phase, applied only on full success."""

    detected: Set[str] = field(default_factory=set)
    undetectable: Set[str] = field(default_factory=set)
    aborted: Set[str] = field(default_factory=set)
    abort_reasons: Dict[str, str] = field(default_factory=dict)
    tests: List[TestPair] = field(default_factory=list)
    sat_calls: int = 0
    effort: Dict[str, int] = field(default_factory=dict)
    shards: int = 0
    workers: int = 0


def _dispatch_sat_shards(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    shards: Sequence[Sequence[Fault]],
    caps: Sequence[int],
    pi_words: int,
    budget: Optional[AtpgBudget],
    backend: str,
    batch_size: int,
    workers: int,
    sup: SuperviseConfig,
    local: EngineStats,
    outcome: "ParallelSatOutcome",
) -> None:
    """Submit the SAT shards, supervise them, and merge into *outcome*.

    Supervision mirrors :func:`repro.faults.psim._dispatch_shards`: with
    a shard deadline active, the test board's heartbeat row is polled
    alongside the futures, a stale shard gets the pool killed and
    rebuilt, and the lost shards re-run once on the same board (sound:
    the board is advisory, and a re-run worker republishing its region
    only shrinks the counter other shards read — they simply fetch
    nothing new until it catches back up).  Shard outputs are staged per
    shard id and merged only after every shard has succeeded.
    """
    pool = _pool_for(circuit, cells, workers)
    board = TestBoard.create(caps, pi_words)
    try:
        staged: Dict[int, Dict[str, object]] = {}
        pending = list(range(len(shards)))
        shard_timeout = sup.effective_timeout()
        hang_retried = False
        while pending:
            futures: Dict[int, Future] = {}
            for s in pending:
                task = {
                    "board": board.name,
                    "caps": list(caps),
                    "offsets": board.offsets,
                    "total_rows": board.total_rows,
                    "pi_words": pi_words,
                    "shard": s,
                    "faults": shards[s],
                    "budget": budget,
                    "backend": backend,
                    "batch_size": batch_size,
                }
                try:
                    blob = pickle.dumps(task)
                except Exception as exc:
                    raise ProcessExecUnavailable(
                        CODE_UNPICKLABLE, f"ATPG shard not picklable: {exc}"
                    ) from exc
                futures[s] = pool.submit(_run_sat_shard, blob)
            try:
                # Stage every shard's output and merge only once all of
                # them succeeded, so a failed shard can never leave a
                # half-applied phase behind (the serial fallback reruns
                # on clean state).
                done, hung = supervise_futures(
                    futures,
                    board.heartbeats,
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
                            f"{len(hung)} SAT-phase shard(s) hung past "
                            f"the {shard_timeout:.2f}s deadline again "
                            f"after a pool rebuild; the phase reruns "
                            f"serially",
                            hung_workers=local.hung_workers,
                            shard_retries=local.shard_retries,
                        )
                    hang_retried = True
                    warn_coded(
                        local, CODE_WORKER_HUNG,
                        f"reaped {len(hung)} hung SAT worker(s) on "
                        f"{circuit.name} (no heartbeat for "
                        f"{shard_timeout:.2f}s); pool killed and rebuilt",
                    )
                    warn_coded(
                        local, CODE_SHARD_RETRY,
                        f"re-running {len(lost)} lost SAT shard(s) on a "
                        f"fresh pool (one-shot retry before the serial "
                        f"fallback)",
                    )
                    local.shard_retries += len(lost)
                    pool = _pool_for(circuit, cells, workers)
                    pending = lost
                    continue
                pending = []
            except BrokenProcessPool as exc:
                _discard_pool(pool)
                raise WorkerCrashError(
                    f"{CODE_FALLBACK_ATPG}: a SAT-phase worker died "
                    f"mid-shard ({exc}); the test board was unlinked — "
                    f"the phase reruns serially"
                ) from exc
        for s in sorted(staged):
            out = staged[s]
            outcome.sat_calls += out["sat_calls"]
            outcome.tests.extend(out["tests"])
            local.merge(out["stats"])
            for k, v in out["effort"].items():
                outcome.effort[k] = outcome.effort.get(k, 0) + v
            outcome.abort_reasons.update(out.get("abort_reasons", {}))
            for fid, st in out["status"].items():
                if st in ("detected", "dropped"):
                    outcome.detected.add(fid)
                elif st == "undetectable":
                    outcome.undetectable.add(fid)
                else:
                    outcome.aborted.add(fid)
    finally:
        board.close()


def process_sat_phase(
    circuit: Circuit,
    cells: Mapping[str, StandardCell],
    faults: Sequence[Fault],
    budget: Optional[AtpgBudget],
    *,
    workers: int,
    backend: str,
    batch_size: int,
    exec_mode: str,
    stats: Optional[EngineStats] = None,
) -> ParallelSatOutcome:
    """Run the deterministic SAT phase of *faults* across worker processes.

    *faults* are the undetected representatives at the end of the random
    phase; every one of them receives a verdict.  Budget conservatism:
    :class:`~repro.atpg.budget.AtpgBudget` limits are **per fault**, so
    each worker enforces exactly the allowance the serial scan would —
    sharding slices the phase's total deadline across shards implicitly
    and can never grant any single fault more resources than serial.
    The aborted-never-undetectable invariant is preserved end to end,
    including a final parent-side upgrade pass that simulates every
    discovered test (all shards) against the aborted residue, so a test
    found in shard A still upgrades shard B's abort exactly like the
    serial aborted-behind-index pass.

    Raises :class:`~repro.faults.psim.ProcessExecUnavailable` when
    process execution cannot run here (including an open circuit
    breaker, ``MC-BREAKER-OPEN``),
    :class:`~repro.faults.psim.WorkerCrashError` when a SAT worker dies
    mid-shard, and :class:`~repro.utils.supervise.WorkerHungError` when
    a shard hangs past its deadline twice (initial run plus the
    one-shot rebuilt-pool retry); ``run_atpg`` maps each to the
    ``MC-FALLBACK-ATPG`` coded warning and a serial rerun on untouched
    state.  *exec_mode* governs only the parent's own upgrade-pass
    fault simulation.
    """
    if not shm_supported():
        raise ProcessExecUnavailable(
            CODE_NO_SHM, "multiprocessing.shared_memory is not functional"
        )
    from repro.faults.fsim import PatternBatch, fault_simulate

    local = EngineStats()
    # Same dispatch-time ledger renegotiation as the psim pool: the SAT
    # shard count tracks the campaign scheduler's current fair share.
    share = active_core_share()
    if share is not None:
        workers = max(1, min(workers, share))
        local.ledger_grants += 1
        local.ledger_workers = max(local.ledger_workers, workers)
    plan = CompiledCircuit.get(circuit, cells, stats=local)
    shards = site_shards(circuit, plan, faults, workers)
    caps = [len(s) for s in shards]
    pi_words = max(1, -(-len(circuit.inputs) // 64))

    sup = resolve_supervision()
    # Identity-compared topology token -> hashable breaker key (see
    # repro.faults.psim.process_fault_simulate).
    bkey = ("atpg", circuit.name, id(circuit.topology_token()))
    breaker = breaker_for(bkey, sup)
    if breaker is not None and not breaker.allow():
        if stats is not None:
            stats.breaker_state[str(bkey)] = breaker.state
        raise ProcessExecUnavailable(
            CODE_BREAKER_OPEN,
            f"ATPG process breaker is open after {breaker.failures} "
            f"consecutive process-layer failures; next half-open probe "
            f"in {breaker.seconds_until_probe():.1f}s",
        )
    outcome = ParallelSatOutcome(shards=len(shards), workers=workers)
    try:
        _dispatch_sat_shards(
            circuit, cells, shards, caps, pi_words, budget, backend,
            batch_size, workers, sup, local, outcome,
        )
    except (WorkerCrashError, SharedMemoryCorruption, WorkerHungError):
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

    # Authoritative cross-shard upgrade: a test discovered anywhere may
    # detect an aborted fault from any shard (aborts are schedule-
    # dependent; detection is not).  Never the reverse direction.
    if outcome.aborted and outcome.tests:
        aborted_faults = [
            f for f in faults if f.fault_id in outcome.aborted
        ]
        for lo in range(0, len(outcome.tests), batch_size):
            if not aborted_faults:
                break
            chunk = outcome.tests[lo:lo + batch_size]
            batch = PatternBatch.from_pairs(circuit, chunk)
            words = fault_simulate(
                circuit, cells, aborted_faults, batch,
                workers=workers, stats=local, backend=backend,
                exec_mode=exec_mode,
            )
            still = []
            for f, w in zip(aborted_faults, words):
                if w:
                    outcome.aborted.discard(f.fault_id)
                    outcome.abort_reasons.pop(f.fault_id, None)
                    outcome.detected.add(f.fault_id)
                else:
                    still.append(f)
            aborted_faults = still

    if stats is not None:
        stats.merge(local)
    return outcome

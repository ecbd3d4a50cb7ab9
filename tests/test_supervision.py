"""Supervised execution: shard deadlines, hang reaping, circuit breaker.

The supervision layer (:mod:`repro.utils.supervise`) turns hang-class
failures — a worker that stops making progress without dying — into the
same loud, recoverable events the crash paths already are.  Contracts
locked in here:

* a chaos-injected hung worker is detected within the shard deadline
  via stalled heartbeats, the pool is killed and rebuilt, the lost
  shards re-run once, and the detect words stay **bit-identical** to
  serial on every bundled benchmark circuit, with ``MC-WORKER-HUNG`` /
  ``MC-SHARD-RETRY`` warnings and ``hung_workers`` / ``shard_retries``
  counters visible;
* a shard that hangs *again* after the rebuild raises
  :class:`WorkerHungError`, and ``fault_simulate`` / ``run_atpg`` fall
  back to the serial path — still bit-identical;
* with supervision disabled the very same injection wedges the dispatch
  for the duration of the hang (demonstrated under a timeout guard) —
  exactly the failure mode the layer exists for;
* slow-but-alive shards (advancing heartbeats) are never reaped, and a
  torn write into the advisory heartbeat row can delay detection but
  never change a verdict — the row lives outside the CRC-covered
  payload;
* repeated process-layer failures open a per-(backend, circuit) breaker
  (``MC-BREAKER-OPEN``: instant fallback instead of a spawn-and-timeout
  tax per call), a cooldown admits exactly one half-open probe, and no
  breaker state ever changes a result (Hypothesis-checked);
* abnormal interpreter exit unlinks live shared segments and shuts down
  cached pools (atexit emergency hook) — no ``/dev/shm`` litter, no
  zombies;
* every abort carries its reason (deadline / conflicts / decisions /
  injected) through ``AtpgResult.abort_reasons`` into the degradation
  records and the rendered report.

These tests install their own seam handlers / chaos injectors, so the
CI chaos job excludes this file from its environment-injector pass
(same policy as ``test_multicore_robustness.py``).
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.budget import AtpgBudget
from repro.atpg.engine import run_atpg
from repro.bench.circuits import BENCHMARKS, build_benchmark
from repro.faults import psim
from repro.faults.fsim import PatternBatch, fault_simulate
from repro.testing.chaos import ChaosConfig, chaos
from repro.utils import seams
from repro.utils.observability import EngineStats
from repro.utils.supervise import (
    CODE_BREAKER_OPEN,
    CODE_SHARD_RETRY,
    CODE_WORKER_HUNG,
    CircuitBreaker,
    SuperviseConfig,
    WorkerHungError,
    breaker_for,
    breaker_states,
    deadline_scope,
    install_deadline_from_env,
    remaining_time,
    reset_breakers,
    resolve_supervision,
    supervise_futures,
)
from tests.conftest import mixed_fault_list, random_mapped_circuit

WORKERS = int(os.environ.get("REPRO_SIM_WORKERS", "0")) or 3

# Benchmark circuits are expensive to synthesize; build each once for
# the whole module run (same policy as the differential suites).
_BENCH_CACHE = {}


def _bench(name, library):
    circuit = _BENCH_CACHE.get(name)
    if circuit is None:
        circuit = build_benchmark(name, library)
        _BENCH_CACHE[name] = circuit
    return circuit


def _assert_no_shm_leaks():
    leaked = glob.glob(f"/dev/shm/{psim.SHM_PREFIX}*")
    assert not leaked, f"orphaned shared segments: {leaked}"


@pytest.fixture(autouse=True)
def _clean_supervision_state():
    yield
    seams.clear()
    psim.shutdown_pools()
    reset_breakers()
    _assert_no_shm_leaks()


def _workload(cells, library, seed=60, n=128):
    circuit = random_mapped_circuit(cells, seed=seed)
    faults = mixed_fault_list(circuit, library, seed=seed)
    batch = PatternBatch.random(circuit, n, seed=seed)
    return circuit, faults, batch


def _hang_once_handler(flag_path, hang_s=3600.0):
    """A worker-side handler that hangs exactly one shard, ever.

    The one-shot is enforced through an O_EXCL flag *file* rather than a
    handler-local counter: fork-started workers each inherit their own
    counter copy, so a rebuilt pool would re-hang on retry — the
    filesystem is the only state every generation of workers shares.
    """

    def handler(shard=None, pid=None, **_):
        if multiprocessing.parent_process() is None:
            return  # parent-side safety: only workers may hang
        try:
            fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        time.sleep(hang_s)

    return handler


# ----------------------------------------------------------------------
# Config resolution and deadline propagation
# ----------------------------------------------------------------------

class TestConfigAndDeadlines:
    def test_defaults_leave_supervision_off(self):
        sup = resolve_supervision(environ={})
        assert sup.shard_timeout is None
        assert sup.poll_s == 0.05
        assert sup.breaker_threshold == 3
        assert sup.breaker_cooldown == 30.0

    def test_env_knobs_are_read_at_call_time(self):
        sup = resolve_supervision(environ={
            "REPRO_SUPERVISE_SHARD_TIMEOUT": "2.5",
            "REPRO_SUPERVISE_POLL_MS": "10",
            "REPRO_SUPERVISE_BREAKER_THRESHOLD": "5",
            "REPRO_SUPERVISE_BREAKER_COOLDOWN": "1.5",
        })
        assert sup.shard_timeout == 2.5
        assert sup.poll_s == 0.010
        assert sup.breaker_threshold == 5
        assert sup.breaker_cooldown == 1.5

    def test_nonpositive_timeout_disables_supervision(self):
        sup = resolve_supervision(
            environ={"REPRO_SUPERVISE_SHARD_TIMEOUT": "0"}
        )
        assert sup.shard_timeout is None
        assert resolve_supervision(shard_timeout=-1.0, environ={}
                                   ).shard_timeout is None

    def test_bad_value_raises_not_silently_disables(self):
        with pytest.raises(ValueError, match="SHARD_TIMEOUT"):
            resolve_supervision(
                environ={"REPRO_SUPERVISE_SHARD_TIMEOUT": "soon"}
            )

    def test_deadline_scope_nesting_inner_min_wins(self):
        assert remaining_time() is None
        with deadline_scope(10.0):
            outer = remaining_time()
            assert outer is not None and 9.0 < outer <= 10.0
            with deadline_scope(1.0):
                inner = remaining_time()
                assert inner is not None and inner <= 1.0
            with deadline_scope(100.0):  # cannot outgrow the outer scope
                assert remaining_time() <= 10.0
            assert remaining_time() <= 10.0
        assert remaining_time() is None

    def test_none_scope_is_a_noop(self):
        with deadline_scope(None):
            assert remaining_time() is None

    def test_effective_timeout_slices_task_deadline(self):
        sup = SuperviseConfig(shard_timeout=5.0)
        with deadline_scope(1.0):
            eff = sup.effective_timeout()
            assert eff is not None and eff <= 1.0
        assert sup.effective_timeout() == 5.0
        # A deadline alone supervises even without the env knob.
        with deadline_scope(2.0):
            eff = SuperviseConfig(shard_timeout=None).effective_timeout()
            assert eff is not None and eff <= 2.0

    def test_install_deadline_from_env(self):
        assert install_deadline_from_env(environ={}) is None
        assert install_deadline_from_env(
            environ={"REPRO_SUPERVISE_DEADLINE": "0"}
        ) is None
        scope = install_deadline_from_env(
            environ={"REPRO_SUPERVISE_DEADLINE": "30"}
        )
        try:
            rem = remaining_time()
            assert rem is not None and 29.0 < rem <= 30.0
        finally:
            scope.__exit__(None, None, None)
        assert remaining_time() is None


# ----------------------------------------------------------------------
# The supervisor loop itself (thread futures stand in for processes)
# ----------------------------------------------------------------------

class TestSuperviseFutures:
    def test_none_timeout_is_a_plain_blocking_wait(self):
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {i: pool.submit(lambda i=i: i * i) for i in range(4)}
            done, hung = supervise_futures(
                futures, lambda: {}, shard_timeout=None,
            )
        assert sorted(done) == [0, 1, 2, 3]
        assert hung == []

    def test_stalled_heartbeat_is_declared_hung(self):
        release = threading.Event()
        beats = {0: 7, 1: 7}

        def stall():
            release.wait(10.0)
            return "late"

        stats = EngineStats()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {
                0: pool.submit(lambda: "fast"),
                1: pool.submit(stall),
            }
            done, hung = supervise_futures(
                futures, lambda: dict(beats),
                shard_timeout=0.2, poll_s=0.02, stats=stats,
            )
            release.set()
        assert done == [0]
        assert hung == [1]
        assert stats.supervise_wakeups > 0

    def test_advancing_heartbeat_is_never_reaped(self):
        release = threading.Event()
        beats = {0: 0}

        def slow():
            # Much slower than the shard deadline, but alive: the beat
            # advances faster than the staleness window.
            for _ in range(10):
                release.wait(0.05)
                beats[0] += 1
            return "done"

        with ThreadPoolExecutor(max_workers=1) as pool:
            futures = {0: pool.submit(slow)}
            done, hung = supervise_futures(
                futures, lambda: dict(beats),
                shard_timeout=0.2, poll_s=0.02,
            )
        assert done == [0] and hung == []
        assert futures[0].result() == "done"

    def test_any_beat_change_counts_as_liveness(self):
        """Wraparound or torn garbage still reads as a *change*."""
        release = threading.Event()
        beats = {0: 2**63}

        def weird():
            for value in (0, 0xDEAD_BEEF, 3):
                release.wait(0.08)
                beats[0] = value
            release.wait(0.08)
            return "ok"

        with ThreadPoolExecutor(max_workers=1) as pool:
            futures = {0: pool.submit(weird)}
            done, hung = supervise_futures(
                futures, lambda: dict(beats),
                shard_timeout=0.25, poll_s=0.02,
            )
        assert done == [0] and hung == []


# ----------------------------------------------------------------------
# Circuit breaker unit behaviour (clock injected, no sleeping)
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_closed_until_threshold_then_open(self):
        b = CircuitBreaker(threshold=3, cooldown=30.0)
        assert b.state == "closed"
        b.record_failure(now=0.0)
        b.record_failure(now=1.0)
        assert b.allow(now=2.0)  # two failures: still closed
        b.record_failure(now=2.0)
        assert not b.allow(now=3.0)
        assert b.seconds_until_probe(now=3.0) == pytest.approx(29.0)

    def test_cooldown_admits_exactly_one_probe(self):
        b = CircuitBreaker(threshold=1, cooldown=10.0)
        b.record_failure(now=0.0)
        assert not b.allow(now=5.0)
        assert b.allow(now=10.0)  # the half-open probe
        assert b.state == "half-open"
        assert not b.allow(now=10.0)  # second caller is rejected
        b.record_success()
        assert b.state == "closed"
        assert b.allow(now=10.0)

    def test_failed_probe_reopens_for_another_cooldown(self):
        b = CircuitBreaker(threshold=1, cooldown=10.0)
        b.record_failure(now=0.0)
        assert b.allow(now=10.0)
        b.record_failure(now=10.0)
        assert not b.allow(now=15.0)
        assert b.allow(now=20.0)

    def test_cancel_probe_releases_without_judging(self):
        """A probe that dies for non-health reasons must not wedge the
        breaker in half-open: the next caller gets the probe instead."""
        b = CircuitBreaker(threshold=1, cooldown=10.0)
        b.record_failure(now=0.0)
        assert b.allow(now=10.0)
        b.cancel_probe()
        assert b.allow(now=10.0)  # probe re-claimable immediately

    def test_success_resets_consecutive_failures(self):
        b = CircuitBreaker(threshold=2, cooldown=10.0)
        b.record_failure(now=0.0)
        b.record_success()
        b.record_failure(now=1.0)
        assert b.allow(now=2.0)  # 1 < threshold: never opened

    def test_registry_disabled_when_threshold_zero(self):
        assert breaker_for(
            ("x",), SuperviseConfig(breaker_threshold=0)
        ) is None

    def test_registry_returns_same_breaker_and_resyncs_knobs(self):
        a = breaker_for(("k",), SuperviseConfig(breaker_threshold=3,
                                                breaker_cooldown=30.0))
        b = breaker_for(("k",), SuperviseConfig(breaker_threshold=7,
                                                breaker_cooldown=1.0))
        assert a is b
        assert a.threshold == 7 and a.cooldown == 1.0
        assert "('k',)" in breaker_states()


class TestBreakerProperties:
    """Hypothesis: no op sequence wedges the breaker or breaks its
    invariants — in particular there is never more than one live probe,
    and from any state the breaker becomes callable again."""

    @given(ops=st.lists(
        st.sampled_from(["allow", "success", "failure", "cancel", "tick"]),
        max_size=40,
    ))
    @settings(max_examples=80, deadline=None)
    def test_transitions_are_sane(self, ops):
        b = CircuitBreaker(threshold=2, cooldown=5.0)
        now = 0.0
        probes_live = 0
        for op in ops:
            state = b._state_unlocked(now)
            assert state in ("closed", "open", "half-open")
            if op == "allow":
                admitted = b.allow(now=now)
                if state == "closed":
                    assert admitted
                elif state == "open":
                    assert not admitted
                elif admitted:
                    probes_live += 1
                    assert probes_live == 1
            elif op == "success":
                b.record_success()
                probes_live = 0
                assert b._state_unlocked(now) == "closed"
            elif op == "failure":
                b.record_failure(now=now)
                probes_live = 0
            elif op == "cancel":
                b.cancel_probe()
                probes_live = 0
            else:  # tick: advance past the cooldown
                now += 6.0
        # Liveness: after a success, or after one cooldown plus a
        # successful probe, calls flow again.
        b.record_success()
        assert b.allow(now=now + 6.0)


# ----------------------------------------------------------------------
# End-to-end: hang, reap, rebuild, retry — bit-identical on every
# bundled benchmark (the PR's acceptance differential)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_hung_worker_reaped_and_retried_bit_identical(
    cells, library, name, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_SUPERVISE_SHARD_TIMEOUT", "0.3")
    circuit = _bench(name, library)
    faults = mixed_fault_list(circuit, library, seed=0, per_kind=5)
    batch = PatternBatch.random(circuit, 150, seed=0)
    serial = fault_simulate(
        circuit, cells, faults, batch,
        workers=1, backend="wide", exec_mode="serial",
    )
    seams.register(
        "psim.shard_start",
        _hang_once_handler(str(tmp_path / f"hang-{name}.flag")),
    )
    stats = EngineStats()
    with pytest.warns(RuntimeWarning, match=CODE_WORKER_HUNG):
        reaped = fault_simulate(
            circuit, cells, faults, batch,
            workers=WORKERS, backend="wide", exec_mode="process",
            stats=stats,
        )
    assert reaped == serial
    if stats.proc_shards:  # the process path completed after the retry
        assert stats.hung_workers >= 1
        assert stats.shard_retries >= 1
        assert any(w.startswith(CODE_WORKER_HUNG) for w in stats.warnings)
        assert any(w.startswith(CODE_SHARD_RETRY) for w in stats.warnings)
        assert stats.supervise_wakeups > 0
    else:  # no shared memory on this host: the fallback said so
        assert stats.warnings


@pytest.mark.parametrize("backend", ["event", "wide"])
def test_always_hanging_shards_fall_down_the_ladder(
    cells, library, backend, monkeypatch
):
    """Per-process hang counters re-hang the rebuilt pool too: after the
    one-shot retry the dispatch raises WorkerHungError and fault_simulate
    lands on the serial fallback — still bit-identical."""
    monkeypatch.setenv("REPRO_SUPERVISE_SHARD_TIMEOUT", "0.25")
    circuit, faults, batch = _workload(cells, library, seed=61)
    serial = fault_simulate(
        circuit, cells, faults, batch,
        workers=1, backend=backend, exec_mode="serial",
    )
    stats = EngineStats()
    with chaos(ChaosConfig(hang_shard_at=1, hang_shard_s=30.0)):
        with pytest.warns(RuntimeWarning, match=CODE_WORKER_HUNG):
            fallen = fault_simulate(
                circuit, cells, faults, batch,
                workers=2, backend=backend, exec_mode="process",
                stats=stats,
            )
    assert fallen == serial
    assert stats.proc_shards == 0  # the process path never completed
    assert stats.hung_workers >= 1
    assert any(w.startswith(CODE_WORKER_HUNG) for w in stats.warnings)


def test_without_supervision_the_same_hang_wedges(cells, library):
    """Control experiment: no shard deadline, same injection — the
    dispatch blocks for the whole hang instead of reaping it."""
    hang_s = 1.5
    circuit, faults, batch = _workload(cells, library, seed=62)
    serial = fault_simulate(
        circuit, cells, faults, batch,
        workers=1, backend="wide", exec_mode="serial",
    )
    assert "REPRO_SUPERVISE_SHARD_TIMEOUT" not in os.environ
    box = {}

    def run():
        with chaos(ChaosConfig(hang_shard_at=1, hang_shard_s=hang_s)):
            box["words"] = fault_simulate(
                circuit, cells, faults, batch,
                workers=2, backend="wide", exec_mode="process",
            )

    worker = threading.Thread(target=run, daemon=True)
    start = time.monotonic()
    worker.start()
    worker.join(0.8)
    assert worker.is_alive(), (
        "unsupervised dispatch should still be blocked on the hung shard"
    )
    worker.join(30.0)  # the hang ends; the call completes normally
    assert not worker.is_alive()
    assert time.monotonic() - start >= hang_s * 0.9
    assert box["words"] == serial


def test_slow_but_alive_shards_are_not_reaped(cells, library, monkeypatch):
    """Heartbeats advance through a slowdown: no reap, no warnings."""
    monkeypatch.setenv("REPRO_SUPERVISE_SHARD_TIMEOUT", "0.5")
    circuit, faults, batch = _workload(cells, library, seed=63)
    serial = fault_simulate(
        circuit, cells, faults, batch,
        workers=1, backend="wide", exec_mode="serial",
    )
    stats = EngineStats()
    with chaos(ChaosConfig(slow_shard_every=1, slow_shard_ms=150.0)):
        slow = fault_simulate(
            circuit, cells, faults, batch,
            workers=2, backend="wide", exec_mode="process", stats=stats,
        )
    assert slow == serial
    assert stats.hung_workers == 0
    assert stats.shard_retries == 0
    if stats.proc_shards:
        assert not stats.warnings


@pytest.mark.parametrize("backend", ["event", "wide"])
def test_torn_heartbeat_write_never_changes_results(
    cells, library, backend, monkeypatch
):
    """The heartbeat row is advisory and outside the CRC range: garbage
    scribbled into it may delay hang detection but the detect words stay
    bit-identical and nothing is reaped."""
    monkeypatch.setenv("REPRO_SUPERVISE_SHARD_TIMEOUT", "0.5")
    circuit, faults, batch = _workload(cells, library, seed=64)
    serial = fault_simulate(
        circuit, cells, faults, batch,
        workers=1, backend=backend, exec_mode="serial",
    )
    stats = EngineStats()
    with chaos(ChaosConfig(torn_board_write_at=1)):
        torn = fault_simulate(
            circuit, cells, faults, batch,
            workers=2, backend=backend, exec_mode="process", stats=stats,
        )
    assert torn == serial
    assert stats.hung_workers == 0
    assert stats.cache_integrity_failures == 0  # CRC never saw the row


# ----------------------------------------------------------------------
# Breaker integration: repeated hangs open it, cooldown half-opens it
# ----------------------------------------------------------------------

def test_breaker_opens_after_repeated_hangs_and_recloses(
    cells, library, monkeypatch
):
    monkeypatch.setenv("REPRO_SUPERVISE_SHARD_TIMEOUT", "0.2")
    monkeypatch.setenv("REPRO_SUPERVISE_BREAKER_THRESHOLD", "2")
    monkeypatch.setenv("REPRO_SUPERVISE_BREAKER_COOLDOWN", "0.5")
    reset_breakers()
    circuit, faults, batch = _workload(cells, library, seed=65)
    serial = fault_simulate(
        circuit, cells, faults, batch,
        workers=1, backend="wide", exec_mode="serial",
    )

    def hung_run():
        stats = EngineStats()
        with chaos(ChaosConfig(hang_shard_at=1, hang_shard_s=30.0)):
            with pytest.warns(RuntimeWarning):
                words = fault_simulate(
                    circuit, cells, faults, batch,
                    workers=2, backend="wide", exec_mode="process",
                    stats=stats,
                )
        assert words == serial
        return stats

    hung_run()  # failure 1 of 2
    hung_run()  # failure 2: the breaker opens
    assert any(s == "open" for s in breaker_states().values())

    # Third call: rejected instantly — MC-BREAKER-OPEN, no pool spawn,
    # no shard-timeout tax, bit-identical serial fallback.
    stats = EngineStats()
    with pytest.warns(RuntimeWarning, match=CODE_BREAKER_OPEN):
        rejected = fault_simulate(
            circuit, cells, faults, batch,
            workers=2, backend="wide", exec_mode="process", stats=stats,
        )
    assert rejected == serial
    assert any(w.startswith(CODE_BREAKER_OPEN) for w in stats.warnings)
    assert "open" in stats.breaker_state.values()

    # After the cooldown a single half-open probe runs for real; with
    # the chaos uninstalled it succeeds and closes the breaker again.
    time.sleep(0.6)
    stats = EngineStats()
    probed = fault_simulate(
        circuit, cells, faults, batch,
        workers=2, backend="wide", exec_mode="process", stats=stats,
    )
    assert probed == serial
    if stats.proc_shards:
        assert all(s == "closed" for s in stats.breaker_state.values())
        assert all(s == "closed" for s in breaker_states().values())


@given(forced=st.lists(
    st.sampled_from(["closed", "open", "half-open"]), max_size=6,
))
@settings(max_examples=12, deadline=None)
def test_breaker_state_never_changes_detect_words(forced, _supervision_env):
    """Whatever state the breaker is forced into before a call, the
    returned detect words are identical — only the execution path (and
    its warnings) may differ."""
    cells, library, circuit, faults, batch, serial = _supervision_env
    sup = resolve_supervision(environ={})
    key = ("fsim", "wide", circuit.name, id(circuit.topology_token()))
    for state in forced:
        breaker = breaker_for(key, sup)
        if state == "closed":
            breaker.record_success()
        elif state == "open":
            breaker.failures = breaker.threshold
            breaker.opened_at = time.monotonic()
            breaker._probing = False
        else:  # half-open: cooldown elapsed
            breaker.failures = breaker.threshold
            breaker.opened_at = time.monotonic() - breaker.cooldown - 1.0
            breaker._probing = False
        words = fault_simulate(
            circuit, cells, faults, batch,
            workers=2, backend="wide", exec_mode="process",
        )
        assert words == serial


@pytest.fixture(scope="module")
def _supervision_env(cells, library):
    """One workload + serial baseline shared by the Hypothesis test
    (building a circuit per example would dominate the runtime)."""
    circuit, faults, batch = _workload(cells, library, seed=66)
    serial = fault_simulate(
        circuit, cells, faults, batch,
        workers=1, backend="wide", exec_mode="serial",
    )
    return cells, library, circuit, faults, batch, serial


# ----------------------------------------------------------------------
# ATPG: the SAT phase under the same supervision
# ----------------------------------------------------------------------

def test_atpg_hung_sat_shard_reaped_and_retried(
    cells, library, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_SUPERVISE_SHARD_TIMEOUT", "0.3")
    circuit = _bench("sparc_tlu", library)
    faults = mixed_fault_list(circuit, library, seed=1, per_kind=6)
    serial = run_atpg(
        circuit, cells, faults, seed=1, random_rounds=0,
        exec_mode="serial", workers=1,
    )
    seams.register(
        "atpg.shard_start",
        _hang_once_handler(str(tmp_path / "atpg-hang.flag")),
    )
    stats = EngineStats()
    proc = run_atpg(
        circuit, cells, faults, seed=1, random_rounds=0,
        exec_mode="process", workers=WORKERS, stats=stats,
    )
    # The verdict partition is schedule-independent; the concrete test
    # cubes are not (parallel shards pick different satisfying
    # assignments), so only the partition is compared — same contract
    # as the parallel-ATPG differential suite.
    assert proc.detected == serial.detected
    assert proc.undetectable == serial.undetectable
    assert proc.aborted == serial.aborted
    if stats.sat_shards:  # the parallel phase survived via the retry
        assert stats.hung_workers >= 1
        assert stats.shard_retries >= 1
        assert any(w.startswith(CODE_WORKER_HUNG) for w in stats.warnings)
    else:  # it fell back — loudly
        assert stats.warnings


# ----------------------------------------------------------------------
# Emergency cleanup on abnormal exit
# ----------------------------------------------------------------------

def test_emergency_cleanup_unlinks_live_segments(cells, library):
    import numpy as np

    good = np.zeros((4, 2), dtype=np.uint64)
    frame = np.zeros((2, 2), dtype=np.uint64)
    block = psim.SharedBatchBlock.create(good, good, frame, frame,
                                         hb_slots=2)
    assert glob.glob(f"/dev/shm/{psim.SHM_PREFIX}*")
    psim._emergency_cleanup()
    _assert_no_shm_leaks()
    assert block.heartbeats() == {}  # closed, not just forgotten


def test_abnormal_exit_unlinks_segments_and_leaves_no_zombies(tmp_path):
    """A process that dies with live segments and a live pool must not
    litter /dev/shm or leave zombie workers (the atexit hook)."""
    script = tmp_path / "abnormal_exit.py"
    script.write_text(
        "import sys\n"
        "import numpy as np\n"
        "from repro.faults import psim\n"
        "good = np.zeros((8, 2), dtype=np.uint64)\n"
        "frame = np.zeros((3, 2), dtype=np.uint64)\n"
        "block = psim.SharedBatchBlock.create(good, good, frame, frame,\n"
        "                                     hb_slots=2)\n"
        "board = None\n"
        "from repro.atpg.patpg import TestBoard\n"
        "board = TestBoard.create([4, 4], 2)\n"
        "print('SEGMENTS', block.name, board.name)\n"
        "sys.exit(3)  # abnormal: neither segment was closed\n"
    )
    src_root = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src_root), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "SEGMENTS" in proc.stdout
    _assert_no_shm_leaks()


# ----------------------------------------------------------------------
# Abort reasons: which budget tripped, end to end
# ----------------------------------------------------------------------

def _abort_scenario(cells, library):
    circuit = random_mapped_circuit(cells, n_pi=6, n_gates=24, n_po=6,
                                    seed=3)
    faults = mixed_fault_list(circuit, library, seed=3, per_kind=6)
    return circuit, faults


class TestAbortReasons:
    def test_decision_budget_reason(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        result = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
            budget=AtpgBudget(decision_budget=0),
        )
        if result.aborted:
            assert set(result.abort_reasons) == result.aborted
            assert set(result.abort_reasons.values()) <= {"decisions"}
            assert result.stats.sat_abort_reasons.get("decisions", 0) > 0
            assert any("decisions=" in record
                       for record in result.stats.degradations)

    def test_deadline_reason(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        result = run_atpg(
            circuit, cells, list(faults), seed=5, random_rounds=2,
            budget=AtpgBudget(deadline_ms=0.0),
        )
        if result.aborted:
            assert set(result.abort_reasons.values()) <= {"deadline"}
            assert any("deadline=" in record
                       for record in result.stats.degradations)

    def test_injected_reason(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        with chaos(ChaosConfig(sat_abort_calls=frozenset(range(64)))):
            result = run_atpg(
                circuit, cells, list(faults), seed=5, random_rounds=2,
            )
        if result.aborted:
            assert set(result.abort_reasons.values()) <= {"injected"}

    def test_clean_run_has_no_reasons(self, cells, library):
        circuit, faults = _abort_scenario(cells, library)
        result = run_atpg(circuit, cells, list(faults), seed=5,
                          random_rounds=2)
        assert result.abort_reasons == {}
        assert result.stats.sat_abort_reasons == {}

    def test_reasons_reach_report_degradations(self):
        from repro.runner.report import (
            build_report,
            normalize_report,
            render_report,
        )

        outcomes = {
            "analyze:full:x": {
                "kind": "analyze", "status": "ok", "duration": 1.0,
                "attempts": 1,
                "payload": {
                    "degradation": {
                        "aborted_faults": 3,
                        "abort_reasons": {"deadline": 2, "conflicts": 1},
                        "records": ["r1"],
                    },
                },
            },
        }
        report = build_report(
            {}, "run-x", outcomes,
            runtime_warnings={"RUN-THREAD-ABANDONED": 1},
        )
        assert report["degradations"]["analyze:full:x"]["abort_reasons"] \
            == {"deadline": 2, "conflicts": 1}
        assert report["runtime_warnings"] == {"RUN-THREAD-ABANDONED": 1}
        rendered = render_report(report)
        assert "abort_reasons[deadline]=2" in rendered
        assert "abort_reasons[conflicts]=1" in rendered
        assert "RUN-THREAD-ABANDONED" in rendered
        # Both are wall-clock facts: normalization strips them so
        # straight and resumed runs still compare byte-for-byte.
        normalized = normalize_report(report)
        assert "runtime_warnings" not in normalized
        assert "abort_reasons" not in normalized["degradations"][
            "analyze:full:x"]


# ----------------------------------------------------------------------
# Chaos env parsing for the new knobs
# ----------------------------------------------------------------------

def test_chaos_env_parses_supervision_knobs():
    config = ChaosConfig.from_env({
        "REPRO_CHAOS": "hang_shard_at=2,hang_shard_s=0.5,"
                       "slow_shard_every=3,slow_shard_ms=25,"
                       "torn_board_write_at=1",
    })
    assert config.hang_shard_at == 2
    assert config.hang_shard_s == 0.5
    assert config.slow_shard_every == 3
    assert config.slow_shard_ms == 25.0
    assert config.torn_board_write_at == 1

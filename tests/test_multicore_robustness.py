"""Crash and corruption robustness of the process-parallel layer.

The shared-memory process path must fail *loudly and cleanly*:

* a worker SIGKILLed mid-shard surfaces as :class:`WorkerCrashError`
  (a clear, retryable error — the runner's per-task retry policy covers
  it), the broken pool is retired, the shared segment is unlinked, and
  the very next call recovers with a fresh pool;
* a corrupted shared good-value block is caught by the workers' CRC
  verification — repaired once from the parent's pristine arrays with
  results bit-identical to serial, and raised as
  :class:`SharedMemoryCorruption` when the corruption persists;
* every unavailability fallback (no shared memory, unpicklable faults)
  announces itself through a coded
  warning on ``EngineStats.warnings`` *and* a Python ``RuntimeWarning``
  — never a silent downgrade;
* no test leaves an orphaned ``/dev/shm/repro_mc_*`` segment behind
  (the CI leak-check step enforces the same invariant fleet-wide).

These tests install their own seam handlers / chaos injectors, so the
CI chaos job excludes this file from its environment-injector pass and
runs it in the clean step instead (same policy as ``test_chaos.py``).
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import signal

import pytest

from repro.faults import psim
from repro.faults.fsim import PatternBatch, fault_simulate
from repro.faults.psim import (
    ProcessExecUnavailable,
    SharedMemoryCorruption,
    WorkerCrashError,
)
from repro.faults.model import StuckAtFault
from repro.testing.chaos import ChaosConfig, chaos
from repro.utils import seams
from repro.utils.observability import EngineStats, WARNINGS_CAP, warn_coded
from tests.conftest import mixed_fault_list, random_mapped_circuit


def _assert_no_shm_leaks():
    leaked = glob.glob(f"/dev/shm/{psim.SHM_PREFIX}*")
    assert not leaked, f"orphaned shared segments: {leaked}"


@pytest.fixture(autouse=True)
def _clean_seams_and_segments():
    yield
    seams.clear()
    psim.shutdown_pools()
    _assert_no_shm_leaks()


def _workload(cells, library, seed=40, n=128):
    circuit = random_mapped_circuit(cells, seed=seed)
    faults = mixed_fault_list(circuit, library, seed=seed)
    batch = PatternBatch.random(circuit, n, seed=seed)
    return circuit, faults, batch


@pytest.mark.parametrize("backend", ["event", "wide"])
def test_worker_killed_mid_shard(cells, library, backend):
    """SIGKILL in a worker: clean WorkerCrashError, no leak, recovery."""
    circuit, faults, batch = _workload(cells, library)
    serial = fault_simulate(
        circuit, cells, faults, batch, workers=1,
        backend=backend, exec_mode="serial",
    )

    def kill_first_shard(indices=None, pid=None, **_):
        # Fires in the worker (handlers ride along on fork); the guard
        # keeps a hypothetical parent-side firing harmless.
        if 0 in indices and multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)

    # Register before the first process call so the pool's forked
    # workers inherit the handler.
    seams.register("psim.shard", kill_first_shard)
    with pytest.raises(WorkerCrashError, match="MC-WORKER-CRASH"):
        fault_simulate(
            circuit, cells, faults, batch, workers=3,
            backend=backend, exec_mode="process",
        )
    seams.unregister("psim.shard")
    _assert_no_shm_leaks()  # the crashed call already unlinked its block

    # The broken pool was retired; the next call builds a fresh one and
    # produces bit-identical results.
    recovered = fault_simulate(
        circuit, cells, faults, batch, workers=3,
        backend=backend, exec_mode="process",
    )
    assert recovered == serial


@pytest.mark.parametrize("backend", ["event", "wide"])
def test_corrupted_shm_block_is_repaired_bit_exactly(cells, library, backend):
    """Every-2nd-block corruption: caught by CRC, rebuilt, identical."""
    circuit, faults, batch = _workload(cells, library, seed=41)
    serial = fault_simulate(
        circuit, cells, faults, batch, workers=1,
        backend=backend, exec_mode="serial",
    )
    stats = EngineStats()
    with chaos(ChaosConfig(corrupt_shm_every=2)) as injector:
        clean = fault_simulate(
            circuit, cells, faults, batch, workers=2,
            backend=backend, exec_mode="process", stats=stats,
        )  # block 1: untouched
        repaired = fault_simulate(
            circuit, cells, faults, batch, workers=2,
            backend=backend, exec_mode="process", stats=stats,
        )  # block 2: corrupted, rebuilt as block 3
    assert clean == serial
    assert repaired == serial
    assert injector.counters.shm_blocks_seen == 3
    assert injector.counters.shm_corruptions_injected == 1
    assert stats.cache_integrity_failures == 1
    assert any("CRC" in record for record in stats.degradations)


def test_persistently_corrupted_shm_block_raises(cells, library):
    """Corruption that survives the one rebuild is an explicit error."""
    circuit, faults, batch = _workload(cells, library, seed=42)
    with chaos(ChaosConfig(corrupt_shm_every=1)) as injector:
        with pytest.raises(SharedMemoryCorruption, match="CRC"):
            fault_simulate(
                circuit, cells, faults, batch, workers=2,
                backend="wide", exec_mode="process",
            )
    assert injector.counters.shm_corruptions_injected == 2  # both attempts
    _assert_no_shm_leaks()


def test_chaos_env_parses_corrupt_shm_every():
    config = ChaosConfig.from_env({"REPRO_CHAOS": "corrupt_shm_every=3"})
    assert config.corrupt_shm_every == 3


@pytest.mark.parametrize("backend", ["event", "wide"])
def test_unpicklable_faults_fall_back_with_coded_warning(
    cells, library, backend
):
    """A shard that cannot be pickled degrades loudly, not silently."""

    class LocalFault(StuckAtFault):  # local classes cannot be pickled
        pass

    circuit, faults, batch = _workload(cells, library, seed=43)
    net = next(iter(circuit.inputs))
    faults = list(faults) + [
        LocalFault("sa0:local", "MET-01", net=net, value=0)
    ]
    serial = fault_simulate(
        circuit, cells, faults, batch, workers=1,
        backend=backend, exec_mode="serial",
    )
    stats = EngineStats()
    with pytest.warns(RuntimeWarning, match="MC-FALLBACK-PICKLE"):
        fallback = fault_simulate(
            circuit, cells, faults, batch, workers=2,
            backend=backend, exec_mode="process", stats=stats,
        )
    assert fallback == serial
    assert any(w.startswith("MC-FALLBACK-PICKLE") for w in stats.warnings)
    # The announced fallback is one serial pass, for both backends.
    assert stats.proc_shards == 0
    assert stats.batches == 1
    assert any(
        w.startswith("MC-FALLBACK-PICKLE")
        and w.endswith("falling back to serial")
        for w in stats.warnings
    )


@pytest.mark.parametrize("backend", ["event", "wide"])
def test_missing_shared_memory_falls_back_with_coded_warning(
    cells, library, backend, monkeypatch
):
    circuit, faults, batch = _workload(cells, library, seed=44)
    serial = fault_simulate(
        circuit, cells, faults, batch, workers=1,
        backend=backend, exec_mode="serial",
    )
    monkeypatch.setattr(psim, "_SHM_PROBE", False)
    stats = EngineStats()
    with pytest.warns(RuntimeWarning, match="MC-FALLBACK-SHM"):
        fallback = fault_simulate(
            circuit, cells, faults, batch, workers=2,
            backend=backend, exec_mode="process", stats=stats,
        )
    assert fallback == serial
    assert any(w.startswith("MC-FALLBACK-SHM") for w in stats.warnings)


def test_pools_are_cached_and_bounded(cells, library):
    """One pool per (circuit, workers), reused across batches, LRU-bounded."""
    psim.shutdown_pools()
    circuit, faults, batch = _workload(cells, library, seed=46)
    fault_simulate(
        circuit, cells, faults, batch, workers=2,
        backend="wide", exec_mode="process",
    )
    pool_before = next(iter(psim._POOLS.values()))[0]
    fault_simulate(
        circuit, cells, faults, batch, workers=2,
        backend="wide", exec_mode="process",
    )
    pool_after = next(iter(psim._POOLS.values()))[0]
    assert pool_before is pool_after
    assert len(psim._POOLS) <= psim._MAX_POOLS

    # Distinct circuits get distinct pools, and the cache stays bounded.
    for seed in (47, 48, 49):
        c, f, b = _workload(cells, library, seed=seed)
        fault_simulate(
            c, cells, f, b, workers=2, backend="wide", exec_mode="process",
        )
    assert len(psim._POOLS) <= psim._MAX_POOLS


def test_shm_probe_failure_reason_reaches_fallback_warning(
    cells, library, monkeypatch
):
    """The probe records *why* shared memory is unusable, and the
    MC-FALLBACK-SHM warning carries that reason to the user."""

    class NoShm:
        def __init__(self, *a, **kw):
            raise OSError("no /dev/shm mounted here")

    monkeypatch.setattr(psim, "_SHM_PROBE", None)
    monkeypatch.setattr(psim, "_SHM_PROBE_ERROR", None)
    monkeypatch.setattr(psim.shared_memory, "SharedMemory", NoShm)
    assert psim.shm_supported() is False
    assert "no /dev/shm mounted here" in psim.shm_probe_error()

    circuit, faults, batch = _workload(cells, library, seed=51)
    stats = EngineStats()
    with pytest.warns(RuntimeWarning, match="no /dev/shm mounted here"):
        fault_simulate(
            circuit, cells, faults, batch, workers=2,
            backend="event", exec_mode="process", stats=stats,
        )
    assert any(
        w.startswith("MC-FALLBACK-SHM") and "no /dev/shm mounted here" in w
        for w in stats.warnings
    )


def test_shm_probe_unexpected_error_propagates(monkeypatch):
    """A probe bug (non-OSError) must raise, not silently disable shm."""

    class Broken:
        def __init__(self, *a, **kw):
            raise TypeError("probe called wrong")

    monkeypatch.setattr(psim, "_SHM_PROBE", None)
    monkeypatch.setattr(psim, "_SHM_PROBE_ERROR", None)
    monkeypatch.setattr(psim.shared_memory, "SharedMemory", Broken)
    with pytest.raises(TypeError, match="probe called wrong"):
        psim.shm_supported()


def test_tracker_unregister_failure_is_coded_not_silent(monkeypatch):
    """A failed tracker withdrawal in _attach lands on the stats delta."""
    from multiprocessing import resource_tracker

    shm = psim.shared_memory.SharedMemory(create=True, size=64)
    try:
        monkeypatch.setitem(psim._WORKER_STATE, "shared_tracker", False)

        def boom(name, rtype):
            raise KeyError(name)

        monkeypatch.setattr(resource_tracker, "unregister", boom)
        stats = EngineStats()
        with pytest.warns(RuntimeWarning, match="MC-TRACKER-UNREG"):
            attached = psim._attach(shm.name, stats)
        attached.close()
        assert any(
            w.startswith("MC-TRACKER-UNREG") for w in stats.warnings
        )
        assert stats.warning_counts.get("MC-TRACKER-UNREG") == 1
    finally:
        monkeypatch.undo()
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        shm.close()
        shm.unlink()


def test_stats_merge_carries_multicore_counters():
    a = EngineStats(
        proc_shards=2, proc_workers=4, shm_bytes=100,
        shard_imbalance=1.5, warnings=["MC-X: one"],
    )
    b = EngineStats(
        proc_shards=3, proc_workers=2, shm_bytes=50,
        shard_imbalance=1.2, warnings=["MC-Y: two"],
    )
    a.merge(b)
    assert a.proc_shards == 5
    assert a.proc_workers == 4  # high-water mark
    assert a.shm_bytes == 150
    assert a.shard_imbalance == 1.5  # high-water mark
    assert a.warnings == ["MC-X: one", "MC-Y: two"]
    d = a.as_dict()
    for key in ("proc_shards", "proc_workers", "shm_bytes",
                "shard_imbalance", "warnings", "warning_counts"):
        assert key in d


def test_merge_dedupes_warnings_by_code_with_counts():
    """Merging many shard deltas must not grow the list without bound:
    one entry per code, with a count of how often it fired."""
    total = EngineStats()
    for i in range(200):
        delta = EngineStats(warnings=[f"MC-FALLBACK-SHM: shard {i} fell back"])
        total.merge(delta)
    assert len(total.warnings) == 1
    assert total.warnings[0] == "MC-FALLBACK-SHM: shard 0 fell back"
    assert total.warning_counts["MC-FALLBACK-SHM"] == 200
    # A distinct code still gets its own entry.
    total.merge(EngineStats(warnings=["MC-TRACKER-UNREG: oops"]))
    assert len(total.warnings) == 2
    assert total.warning_counts["MC-TRACKER-UNREG"] == 1


def test_warn_coded_dedupes_and_counts():
    stats = EngineStats()
    with pytest.warns(RuntimeWarning):
        for _ in range(5):
            warn_coded(stats, "MC-FALLBACK-PICKLE", "faults not picklable")
    assert stats.warnings == ["MC-FALLBACK-PICKLE: faults not picklable"]
    assert stats.warning_counts["MC-FALLBACK-PICKLE"] == 5
    assert stats.as_dict()["warning_counts"]["MC-FALLBACK-PICKLE"] == 5


def test_warnings_list_is_capped():
    """Even with many *distinct* codes the stored list stays bounded;
    counts keep the full tally."""
    stats = EngineStats()
    with pytest.warns(RuntimeWarning):
        for i in range(WARNINGS_CAP + 40):
            warn_coded(stats, f"MC-TEST-{i}", f"message {i}")
    assert len(stats.warnings) == WARNINGS_CAP
    assert len(stats.warning_counts) == WARNINGS_CAP + 40
    # Merge obeys the same cap.
    merged = EngineStats()
    for i in range(WARNINGS_CAP + 40):
        merged.merge(EngineStats(warnings=[f"MC-M-{i}: message {i}"]))
    assert len(merged.warnings) == WARNINGS_CAP
    assert len(merged.warning_counts) == WARNINGS_CAP + 40
    assert all(merged.warning_counts[f"MC-M-{i}"] == 1
               for i in range(WARNINGS_CAP + 40))

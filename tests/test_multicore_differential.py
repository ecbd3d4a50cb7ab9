"""Differential tests: process-parallel fault sharding vs the serial path.

The process execution layer (:mod:`repro.faults.psim`) must be
*bit-identical* to the serial path — same detect words, same ATPG
verdict partition, same generated tests, and the same semantic engine
counters after the merge — for both simulation backends.  This suite
locks that in:

* detect-word bit-identity on every bundled benchmark circuit for seeds
  {0, 1, 2}, event and wide backends;
* end-to-end through ``run_atpg``: identical detected / undetectable /
  aborted partitions, tests and coverage;
* merged ``EngineStats`` equality against a serial run (cache-neutral:
  each run gets a freshly built circuit, so cache temperature cannot
  leak between runs);
* the ``detected_by_patterns`` wrapper and the ``REPRO_SIM_EXEC`` /
  ``REPRO_SIM_WORKERS`` environment dispatch.

The worker count is deliberately environment-overridable: the CI
multicore leg re-runs this file with ``REPRO_SIM_WORKERS=2`` and ``=4``
to cover both below- and at-core-count sharding.
"""

from __future__ import annotations

import os

import pytest

from repro.atpg.engine import run_atpg
from repro.bench.circuits import BENCHMARKS, build_benchmark
from repro.faults.fsim import (
    PatternBatch,
    detected_by_patterns,
    fault_simulate,
)
from repro.utils.observability import EngineStats
from tests.conftest import mixed_fault_list, random_mapped_circuit

# Worker count under test.  REPRO_SIM_WORKERS (the engine's own env
# knob) doubles as the suite's override so the CI multicore leg can
# sweep worker counts without touching the tests; 3 otherwise (an odd
# count exercises uneven LPT shards).
WORKERS = int(os.environ.get("REPRO_SIM_WORKERS", "0")) or 3

BACKENDS = ["event", "wide"]

# Benchmark circuits are expensive to synthesize; build each once for
# the whole module run.
_BENCH_CACHE = {}


def _bench(name, library):
    circuit = _BENCH_CACHE.get(name)
    if circuit is None:
        circuit = build_benchmark(name, library)
        _BENCH_CACHE[name] = circuit
    return circuit


# Counters that may legitimately differ between a serial and a process
# run: dispatch bookkeeping, wall-clock, process-of-execution detail,
# and the bounded global evaluator cache (whose temperature depends on
# what ran before in the same session).
_VOLATILE = {
    "phase_seconds", "eval_cache_hits",
    "eval_cache_misses", "proc_shards", "proc_workers", "shm_bytes",
    "shard_imbalance", "warnings",
    # Supervision metadata exists only on the process path by nature
    # (a serial run has no breaker, no supervisor loop).
    "breaker_state", "supervise_wakeups",
}
if os.environ.get("REPRO_CHAOS"):
    # Under an environment-installed chaos injector the corruption
    # pattern is positional (every Nth cache hit *globally*), so the
    # serial and process runs see repairs at different points; results
    # stay bit-identical but cache-temperature counters drift.
    _VOLATILE |= {
        "good_simulations", "good_cache_hits",
        "cache_integrity_failures", "degradations", "vector_ops",
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_process_matches_serial_on_benchmarks(
    cells, library, name, seed, backend
):
    circuit = _bench(name, library)
    faults = mixed_fault_list(circuit, library, seed=seed, per_kind=6)
    batch = PatternBatch.random(circuit, 200, seed=seed)
    serial = fault_simulate(
        circuit, cells, faults, batch,
        workers=1, backend=backend, exec_mode="serial",
    )
    stats = EngineStats()
    proc = fault_simulate(
        circuit, cells, faults, batch,
        workers=WORKERS, backend=backend, exec_mode="process", stats=stats,
    )
    assert serial == proc
    if stats.proc_shards:  # process execution actually ran here
        assert stats.proc_workers == WORKERS
        assert stats.shm_bytes > 0
        assert stats.shard_imbalance >= 1.0
    else:  # fell back (e.g. no shared memory): it must have said so
        assert stats.warnings


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_run_atpg_process_bit_identity(cells, library, seed, backend):
    """Same seed ⇒ the whole ATPG result matches serial in process mode."""
    circuit = random_mapped_circuit(cells, seed=seed)
    faults = mixed_fault_list(circuit, library, seed=seed)
    serial = run_atpg(
        circuit, cells, faults, seed=seed, batch_size=64,
        backend=backend, workers=1, exec_mode="serial",
    )
    proc = run_atpg(
        circuit, cells, faults, seed=seed, batch_size=64,
        backend=backend, workers=WORKERS, exec_mode="process",
    )
    assert serial.detected == proc.detected
    assert serial.undetectable == proc.undetectable
    assert serial.aborted == proc.aborted
    assert serial.tests == proc.tests
    assert serial.coverage == proc.coverage


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_stats_counters_identical_serial_vs_process(
    cells, library, backend
):
    """The merged stats of a process run equal a serial run's, counter by
    counter — private per-worker instances folded in one atomic merge.

    Each run builds its own circuit so per-plan caches start cold in
    both runs and cache temperature cannot favour either side.
    """

    def run(workers, exec_mode):
        circuit = random_mapped_circuit(cells, seed=21)
        faults = mixed_fault_list(circuit, library, seed=21)
        batch = PatternBatch.random(circuit, 128, seed=3)
        stats = EngineStats()
        words = fault_simulate(
            circuit, cells, faults, batch,
            workers=workers, backend=backend, exec_mode=exec_mode,
            stats=stats,
        )
        return words, stats.as_dict()

    serial_words, serial_stats = run(1, "serial")
    proc_words, proc_stats = run(WORKERS, "process")
    assert serial_words == proc_words
    assert not proc_stats["warnings"], proc_stats["warnings"]
    for key in serial_stats:
        if key in _VOLATILE:
            continue
        assert serial_stats[key] == proc_stats[key], (
            f"{key}: serial={serial_stats[key]} process={proc_stats[key]}"
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_detected_by_patterns_process(cells, library, backend):
    circuit = random_mapped_circuit(cells, seed=9)
    faults = mixed_fault_list(circuit, library, seed=9)
    gen = PatternBatch.random(circuit, 150, seed=13)
    pairs = [
        (
            {pi: (gen.frame1[pi] >> i) & 1 for pi in circuit.inputs},
            {pi: (gen.frame2[pi] >> i) & 1 for pi in circuit.inputs},
        )
        for i in range(150)
    ]
    serial = detected_by_patterns(
        circuit, cells, faults, pairs, backend=backend, exec_mode="serial",
    )
    proc = detected_by_patterns(
        circuit, cells, faults, pairs,
        workers=WORKERS, backend=backend, exec_mode="process",
    )
    assert serial == proc


def test_env_dispatch_selects_process_mode(cells, library, monkeypatch):
    """REPRO_SIM_EXEC/WORKERS reroute fault_simulate without call changes."""
    circuit = random_mapped_circuit(cells, seed=30)
    faults = mixed_fault_list(circuit, library, seed=30)
    batch = PatternBatch.random(circuit, 64, seed=30)
    baseline = fault_simulate(circuit, cells, faults, batch)

    monkeypatch.setenv("REPRO_SIM_EXEC", "process")
    monkeypatch.setenv("REPRO_SIM_WORKERS", "2")
    stats = EngineStats()
    rerouted = fault_simulate(circuit, cells, faults, batch, stats=stats)
    assert rerouted == baseline
    assert stats.proc_shards > 0 or stats.warnings

    # "thread" was an execution mode once; it is rejected like any typo,
    # from the environment and from the keyword alike.
    for bad in ("sideways", "thread"):
        with pytest.raises(ValueError, match="unknown execution mode"):
            fault_simulate(circuit, cells, faults, batch, exec_mode=bad)
        monkeypatch.setenv("REPRO_SIM_EXEC", bad)
        with pytest.raises(ValueError, match="unknown execution mode"):
            fault_simulate(circuit, cells, faults, batch)

    monkeypatch.setenv("REPRO_SIM_EXEC", "auto")
    monkeypatch.setenv("REPRO_SIM_WORKERS", "0")
    with pytest.raises(ValueError, match="workers"):
        fault_simulate(circuit, cells, faults, batch)


def test_auto_mode_uses_processes_for_wide_backend(cells, library):
    """exec_mode=auto: serial for event, shared-memory procs for wide."""
    circuit = random_mapped_circuit(cells, seed=31)
    faults = mixed_fault_list(circuit, library, seed=31)
    batch = PatternBatch.random(circuit, 128, seed=31)

    event_stats = EngineStats()
    fault_simulate(
        circuit, cells, faults, batch,
        workers=2, backend="event", exec_mode="auto", stats=event_stats,
    )
    assert event_stats.proc_shards == 0
    assert event_stats.warnings == []

    wide_stats = EngineStats()
    fault_simulate(
        circuit, cells, faults, batch,
        workers=2, backend="wide", exec_mode="auto", stats=wide_stats,
    )
    assert wide_stats.proc_shards > 0 or wide_stats.warnings

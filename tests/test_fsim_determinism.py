"""Determinism guarantees of the parallel engine.

The worker count is a throughput knob, never a semantics knob: detect
words, ATPG classification, generated tests, and coverage must be
byte-identical between ``workers=1`` and ``workers=4`` process
execution for a fixed seed.
Also pins the 64-pattern word-boundary behaviour of
``detected_by_patterns``.
"""

from __future__ import annotations

import random

import pytest

from repro.atpg.engine import run_atpg
from repro.faults.fsim import PatternBatch, detected_by_patterns, fault_simulate
from repro.faults.reference import reference_detect_words
from repro.faults.sites import enumerate_internal_faults
from repro.utils.observability import EngineStats
from tests.conftest import mixed_fault_list, random_mapped_circuit


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fault_simulate_workers_bit_identical(cells, library, seed):
    circuit = random_mapped_circuit(cells, seed=seed + 50)
    faults = mixed_fault_list(circuit, library=library, seed=seed)
    batch = PatternBatch.random(circuit, 48, seed=seed)
    serial = fault_simulate(circuit, cells, faults, batch, workers=1)
    stats = EngineStats()
    parallel = fault_simulate(
        circuit, cells, faults, batch, workers=4, exec_mode="process",
        stats=stats)
    assert parallel == serial
    assert stats.proc_shards > 1  # the parallel path actually ran
    assert any(serial)


def test_parallel_events_match_serial(cells, library):
    """Worker processes merge their event counts back losslessly."""
    circuit = random_mapped_circuit(cells, seed=60)
    faults = mixed_fault_list(circuit, library=library, seed=6)
    batch = PatternBatch.random(circuit, 32, seed=6)
    s1, s4 = EngineStats(), EngineStats()
    fault_simulate(circuit, cells, faults, batch, workers=1, stats=s1)
    fault_simulate(
        circuit, cells, faults, batch, workers=4, exec_mode="process",
        stats=s4)
    assert s4.proc_shards > 1
    assert s4.events_propagated == s1.events_propagated
    assert s4.faults_simulated == s1.faults_simulated == len(faults)


@pytest.mark.parametrize("n_pairs", [63, 64, 65])
def test_detected_by_patterns_word_boundary(cells, library, n_pairs):
    """Pair counts straddling the 64-bit packing boundary stay exact."""
    circuit = random_mapped_circuit(cells, n_gates=40, seed=70)
    faults = mixed_fault_list(circuit, library=library, seed=7, per_kind=5)
    rng = random.Random(n_pairs)
    pairs = [
        (
            {pi: rng.randint(0, 1) for pi in circuit.inputs},
            {pi: rng.randint(0, 1) for pi in circuit.inputs},
        )
        for _ in range(n_pairs)
    ]
    flags = detected_by_patterns(circuit, cells, faults, pairs)
    parallel = detected_by_patterns(
        circuit, cells, faults, pairs, workers=4, exec_mode="process")
    words = reference_detect_words(circuit, cells, faults, pairs)
    assert flags == parallel == [w != 0 for w in words]
    assert any(flags) and not all(flags)


def test_run_atpg_workers_byte_identical(adder4, cells, library):
    """Full ATPG: tests, classification, coverage identical across workers."""
    faults = enumerate_internal_faults(adder4, library)
    faults += mixed_fault_list(adder4, seed=8, per_kind=4)
    serial = run_atpg(adder4, cells, faults, seed=3, workers=1)
    parallel = run_atpg(
        adder4, cells, faults, seed=3, workers=4, exec_mode="process")
    assert parallel.tests == serial.tests
    assert parallel.detected == serial.detected
    assert parallel.undetectable == serial.undetectable
    assert parallel.coverage == serial.coverage
    assert parallel.sat_calls == serial.sat_calls
    assert serial.detected  # non-degenerate run


def test_all_stats_counters_identical_serial_vs_parallel(cells, library):
    """Worker count must not change any effort counter.

    Per-shard counters are staged by the worker processes and merged
    once at join, so workers=4 reports exactly the counters workers=1
    does.  Excluded by design: the process-dispatch bookkeeping (shards,
    pool width, shared-memory bytes, balance, supervision metadata) and
    the eval-cache temperature split (the compiled-eval lru_cache is
    process-wide, so hits vs. misses depend on what ran earlier — their
    *sum* must still match), plus wall-clock phases.
    """
    def run(workers, exec_mode):
        # Fresh circuit object per run: both runs start with a cold
        # compiled plan and a cold good-value cache.
        circuit = random_mapped_circuit(cells, seed=55)
        faults = mixed_fault_list(circuit, library=library, seed=5)
        batch = PatternBatch.random(circuit, 48, seed=5)
        stats = EngineStats()
        out = fault_simulate(
            circuit, cells, faults, batch, workers=workers,
            exec_mode=exec_mode, stats=stats)
        return out, stats.as_dict()

    out1, serial = run(1, "serial")
    out4, parallel = run(4, "process")
    assert out4 == out1
    assert parallel["proc_shards"] > 1
    volatile = {
        "proc_shards", "proc_workers", "shm_bytes", "shard_imbalance",
        "breaker_state", "supervise_wakeups", "phase_seconds",
        "eval_cache_hits", "eval_cache_misses",
    }
    assert (
        serial["eval_cache_hits"] + serial["eval_cache_misses"]
        == parallel["eval_cache_hits"] + parallel["eval_cache_misses"]
    )
    for key in serial:
        if key in volatile:
            continue
        assert parallel[key] == serial[key], key

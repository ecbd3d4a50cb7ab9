"""Differential tests: site-sharded parallel SAT phase vs the serial scan.

The parallel deterministic phase (:mod:`repro.atpg.patpg`) must leave
the verdict partition untouched: exact SAT decisions are schedule-
independent, so DETECTED / UNDETECTABLE / ABORTED from a process run is
bit-identical to the serial scan for unbudgeted runs on every bundled
benchmark circuit, and the UNDETECTABLE set stays identical under a
budget generous enough for every UNSAT proof to complete.  Under a
*tight* budget only the conservative containments are guaranteed (the
abort schedule is legitimately different across shards) — those are
asserted separately.  The suite also locks the ``REPRO_SIM_EXEC``
environment dispatch of the SAT phase, the flow-level undetectable
counts through ``analyze_design``, and the chaos-injected
SAT-worker-death fallback (``MC-FALLBACK-ATPG`` + unchanged verdicts).

Every ATPG run here uses ``random_rounds=0`` so all representatives
reach the deterministic phase — otherwise the random phase drops most
faults and the parallel path (which needs a minimum number of SAT
candidates) would never engage on these small benchmarks.

The worker count is environment-overridable like the PR 6 suite: the CI
multicore leg re-runs this file with ``REPRO_SIM_WORKERS=2`` and ``=4``.
"""

from __future__ import annotations

import os

import pytest

from repro.atpg.budget import AtpgBudget
from repro.atpg.engine import run_atpg
from repro.atpg.patpg import CODE_FALLBACK_ATPG, MIN_PARALLEL_SAT_FAULTS
from repro.bench.circuits import BENCHMARKS, build_benchmark
from repro.core.flow import analyze_design
from repro.testing.chaos import ChaosConfig, chaos
from repro.utils.observability import EngineStats
from tests.conftest import mixed_fault_list

WORKERS = int(os.environ.get("REPRO_SIM_WORKERS", "0")) or 3

_BENCH_CACHE = {}


def _bench(name, library):
    circuit = _BENCH_CACHE.get(name)
    if circuit is None:
        circuit = build_benchmark(name, library)
        _BENCH_CACHE[name] = circuit
    return circuit


def _fell_back(stats: EngineStats) -> bool:
    return any(CODE_FALLBACK_ATPG in w for w in stats.warnings)


def _run(circuit, cells, faults, seed, exec_mode, workers=1, budget=None):
    return run_atpg(
        circuit, cells, faults, seed=seed, random_rounds=0,
        exec_mode=exec_mode, workers=workers, budget=budget,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_partition_identity_on_benchmarks(cells, library, name, seed):
    """Unbudgeted: bit-identical verdict partition on every benchmark."""
    circuit = _bench(name, library)
    faults = mixed_fault_list(circuit, library, seed=seed, per_kind=6)
    serial = _run(circuit, cells, faults, seed, "serial")
    proc = _run(circuit, cells, faults, seed, "process", workers=WORKERS)
    assert proc.detected == serial.detected
    assert proc.undetectable == serial.undetectable
    assert proc.aborted == serial.aborted == set()
    assert proc.approximate is serial.approximate is False
    assert proc.coverage == serial.coverage
    assert serial.stats.sat_shards == 0
    if proc.stats.sat_shards:  # the parallel phase actually ran here
        assert proc.stats.sat_workers == WORKERS
    else:  # fell back (e.g. no shared memory): it must have said so
        assert _fell_back(proc.stats)


def test_generous_budget_identical_undetectable(cells, library):
    """Every UNSAT proof completes ⇒ identical UNDETECTABLE either way."""
    circuit = _bench("sparc_exu", library)
    faults = mixed_fault_list(circuit, library, seed=0, per_kind=6)
    budget = AtpgBudget(conflict_budget=200_000)
    serial = _run(circuit, cells, faults, 0, "serial", budget=budget)
    proc = _run(
        circuit, cells, faults, 0, "process", workers=WORKERS, budget=budget
    )
    assert proc.undetectable == serial.undetectable
    assert proc.detected == serial.detected
    assert proc.aborted == serial.aborted == set()


def test_tight_budget_stays_conservative(cells, library):
    """Aborts may differ across shards, but never corrupt a verdict.

    Against the unbudgeted (exact) serial run: everything the budgeted
    parallel run *proves* must agree with the exact answer, and aborted
    faults are never counted undetectable.
    """
    circuit = _bench("sparc_ffu", library)
    faults = mixed_fault_list(circuit, library, seed=1, per_kind=6)
    exact = _run(circuit, cells, faults, 1, "serial")
    budget = AtpgBudget(conflict_budget=1, decision_budget=4)
    proc = _run(
        circuit, cells, faults, 1, "process", workers=WORKERS, budget=budget
    )
    assert proc.undetectable <= exact.undetectable
    assert proc.detected <= exact.detected
    assert not (proc.aborted & proc.undetectable)
    assert not (proc.aborted & proc.detected)
    assert (
        len(proc.detected) + len(proc.undetectable) + len(proc.aborted)
        == proc.n_faults
    )


@pytest.mark.parametrize("name", ["sparc_tlu", "wb_conmax"])
def test_analyze_design_undetectable_counts(library, name):
    """Flow-level U is execution-mode-independent."""
    serial_state = analyze_design(
        _bench(name, library), library, exec_mode="serial",
    )
    proc_state = analyze_design(
        build_benchmark(name, library), library,
        workers=WORKERS, exec_mode="process",
    )
    assert (
        len(proc_state.atpg.undetectable)
        == len(serial_state.atpg.undetectable)
    )
    assert proc_state.atpg.detected == serial_state.atpg.detected
    assert proc_state.atpg.undetectable == serial_state.atpg.undetectable


def test_sat_exec_defaults_to_sim_exec(cells, library, monkeypatch):
    """REPRO_SIM_EXEC=process shards the SAT phase without call-site
    changes, and the verdicts stay those of the serial scan."""
    circuit = _bench("sparc_lsu", library)
    faults = mixed_fault_list(circuit, library, seed=0, per_kind=6)
    assert len(faults) >= MIN_PARALLEL_SAT_FAULTS
    baseline = _run(circuit, cells, faults, 0, "serial")
    monkeypatch.setenv("REPRO_SIM_EXEC", "process")
    monkeypatch.setenv("REPRO_SIM_WORKERS", str(WORKERS))
    result = run_atpg(circuit, cells, faults, seed=0, random_rounds=0)
    assert result.stats.sat_shards > 0 or result.stats.warnings
    assert result.detected == baseline.detected
    assert result.undetectable == baseline.undetectable


def test_effort_counters_surface(cells, library):
    """sat_learned/restarts/lemmas land on stats in both execution modes."""
    circuit = _bench("sparc_tlu", library)
    faults = mixed_fault_list(circuit, library, seed=2, per_kind=6)
    serial = _run(circuit, cells, faults, 2, "serial")
    assert serial.stats.sat_learned > 0
    assert serial.stats.sat_lemmas_reused > 0
    proc = _run(circuit, cells, faults, 2, "process", workers=WORKERS)
    if proc.stats.sat_shards:
        assert proc.stats.sat_learned > 0
        assert proc.stats.sat_lemmas_reused >= 0
        assert proc.stats.sat_calls == proc.sat_calls


def test_chaos_kill_atpg_shard_falls_back_serially(cells, library):
    """A SAT worker SIGKILLed mid-shard ⇒ coded fallback, verdicts intact.

    The circuit is built fresh (not from the module cache) so the worker
    pool forks *after* the chaos handler installs and inherits it.
    """
    circuit = build_benchmark("sparc_tlu", library)
    faults = mixed_fault_list(circuit, library, seed=0, per_kind=6)
    serial = _run(circuit, cells, faults, 0, "serial")
    with chaos(ChaosConfig(kill_atpg_shard=1)):
        proc = _run(circuit, cells, faults, 0, "process", workers=WORKERS)
    assert _fell_back(proc.stats), proc.stats.warnings
    assert proc.detected == serial.detected
    assert proc.undetectable == serial.undetectable
    assert proc.aborted == serial.aborted == set()

"""The benchmark's workloads, as run inside one pass process.

Each workload has three steps, called in order by ``run.py --child``:

* ``setup(ctx)`` — imports, library and input generation or ingestion;
  timed as ``setup_s``;
* ``run(ctx)`` — the timed call, made as a user makes it today;
* ``finish(ctx, result)`` — untimed: the outputs compared across passes
  and against the golden files, the exact engine counters, the
  per-layer counts, and the independent output checks.

``finish`` returns ``ops`` (operations attempted) and ``failed_ops``.
An operation is one analysis, one resynthesis run, or one physical
design plus fault extraction; it fails if it raised, left an aborted
ATPG verdict, or failed a check.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import shutil
from typing import Dict, List

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Exact counters a later change may cite.  Two passes of the same code
# and seed should agree on each; run.py flags any that differ.
DETERMINISTIC = (
    "sat_conflicts", "sat_propagations", "events_propagated",
    "faults_simulated", "verdicts_proved", "verdicts_inherited",
)

# Table I circuits.  The paper's full list takes about 60 s per pass on
# two cores, more than one benchmark run may last; these six are the bench
# circuits whose analysis takes under 2.5 s (together about 6 s).
TABLE1_CIRCUITS = ("sparc_tlu", "sparc_lsu", "wb_conmax", "systemcaes",
                   "sparc_spu", "sparc_ffu")

# A workload with a "config_seed" runs the program on that fixed seed;
# the benchmark seed then drives only the output checks.  Its cost moves
# with the program seed more than a spread bound allows: the Table I
# subset by 13.4k to 17.1k SAT conflicts over ten seeds (a ten-run
# spread of 0.265), the resynthesis search chaotically (3.3 to 14.7 s
# on sparc_tlu over six seeds), des_perf by 26k to 33k conflicts.
PARAMS = {
    "table1": {"circuits": list(TABLE1_CIRCUITS), "tables": [1], "jobs": 1,
               "isolation": "inline", "workers": None, "config_seed": 0},
    # One iteration per phase keeps a pass near 9 s; q_max=1 sweeps two
    # slack steps, so candidates hit the evaluation cache and one is
    # accepted.
    "resynth": {"circuits": ["sparc_tlu"], "q_max": 1,
                "max_iterations_per_phase": 1, "workers": 1,
                "config_seed": 0},
    "physical_scale": {"design": "gen_mul32(18)", "placement_seed": "seed"},
    "multicore_sat": {"circuits": ["des_perf"], "workers": 2,
                      "exec_mode": "process", "config_seed": 0},
}

SMOKE_PARAMS = {
    "table1": {"circuits": ["sparc_tlu"]},
    "resynth": {"q_max": 0},
    "physical_scale": {"design": "gen_mul32(8)"},
    "multicore_sat": {"circuits": ["sparc_tlu"]},
}

# Workloads whose outputs do not depend on the benchmark seed keep one
# golden record, under this key, and it applies to every seed.
ANY_SEED = "any"


def seed_independent(name: str) -> bool:
    return "config_seed" in PARAMS[name]


def params_for(name: str, smoke: bool) -> dict:
    params = dict(PARAMS[name])
    if smoke:
        params.update(SMOKE_PARAMS.get(name, {}))
    return params


def _counters(engine: Dict[str, object]) -> Dict[str, int]:
    return {k: int(engine.get(k, 0)) for k in DETERMINISTIC}


def _sum_engine(dicts: List[Dict[str, object]]) -> Dict[str, object]:
    total: Dict[str, object] = {"phase_seconds": {}}
    for d in dicts:
        for key, value in d.items():
            if key == "phase_seconds":
                for phase, sec in value.items():
                    total["phase_seconds"][phase] = \
                        total["phase_seconds"].get(phase, 0.0) + sec
            elif isinstance(value, (int, float)) and not isinstance(
                    value, bool):
                total[key] = total.get(key, 0) + value
    return total


def _state_outputs(state, with_tests: bool = True) -> dict:
    from repro.core.metrics import table1_row

    row = table1_row(state.circuit.name, state)
    if with_tests:
        row["T"] = len(state.tests)
    return row


# ----------------------------------------------------------------------
# table1: Table I through the runner, as `runner run --tables 1 --jobs 1`
# ----------------------------------------------------------------------

def table1_setup(ctx: dict) -> None:
    from repro.runner import tasks

    tasks._library_variant("full")
    for name in ctx["params"]["circuits"]:
        tasks._built_circuit(name, 1, "full")


def table1_run(ctx: dict):
    from repro.runner.executor import Runner
    from repro.runner.report import render_report
    from repro.runner.tasks import paper_campaign, preflight_campaign

    p = ctx["params"]
    campaign = paper_campaign(
        list(p["circuits"]), f"pass-{os.getpid()}",
        tables=tuple(p["tables"]), seed=p["config_seed"], workers=p["workers"],
        isolation=p["isolation"],
    )
    problems = preflight_campaign(campaign)
    if problems:
        raise RuntimeError(f"campaign preflight failed: {problems}")
    store: dict = {}
    runner = Runner(campaign, root=ctx["runs_root"], jobs=p["jobs"],
                    store=store)
    report = runner.execute()
    render_report(report)
    return report, store


def table1_finish(ctx: dict, result) -> dict:
    from repro.runner import tasks

    report, store = result
    shutil.rmtree(ctx["runs_root"], ignore_errors=True)
    cells = {c.name: c for c in tasks._library_variant("full")}
    outputs, problems, failed = {}, [], 0
    engines = []
    for name in ctx["params"]["circuits"]:
        task = report["tasks"].get(f"analyze:full:{name}", {})
        state = store.get(f"analysis:full:{name}")
        if task.get("status") != "ok" or state is None:
            problems.append(f"{name}: task status {task.get('status')}")
            failed += 1
            continue
        engines.append(state.stats.as_dict())
        outputs[name] = _state_outputs(state)
        found, _ = checks.state_checks(state, cells, ctx["seed"])
        problems += found
        failed += bool(found)
    engine = _sum_engine(engines)
    return {
        "ops": len(ctx["params"]["circuits"]), "failed_ops": failed,
        "problems": problems, "outputs": outputs,
        "counters": _counters(engine), "engine": engine,
        "layers": {"runner.tasks": len(report["tasks"])},
    }


# ----------------------------------------------------------------------
# resynth: a bounded Table II
# ----------------------------------------------------------------------

def resynth_setup(ctx: dict) -> None:
    from repro.bench import build_benchmark
    from repro.library import osu018_library

    ctx["library"] = library = osu018_library()
    ctx["circuits"] = [build_benchmark(n, library)
                       for n in ctx["params"]["circuits"]]
    ctx["originals"] = [c.clone() for c in ctx["circuits"]]


def resynth_run(ctx: dict):
    from repro.core import resynthesis

    p = ctx["params"]
    config = resynthesis.ResynthesisConfig(
        q_max=p["q_max"], max_iterations_per_phase=p["max_iterations_per_phase"],
        workers=p["workers"], seed=p["config_seed"],
    )
    return [resynthesis.resynthesize_for_coverage(c, ctx["library"], config)
            for c in ctx["circuits"]]


def resynth_finish(ctx: dict, results) -> dict:
    from repro.core.metrics import table2_row

    cells = {c.name: c for c in ctx["library"]}
    outputs, problems, failed, engines = {}, [], 0, []
    layers = {"core.candidates": 0, "core.backtracks": 0,
              "core.accepted": 0, "core.cache_hits": 0, "core.cache_lookups": 0,
              "core.rtime": [], "atpg.tests_miss_detected": 0}
    for name, original, res in zip(ctx["params"]["circuits"],
                                   ctx["originals"], results):
        rows = table2_row(name, res)
        for row in rows:
            row.pop("Rtime")
        outputs[name] = {
            "q_used": res.q_used, "table2": rows,
            "trace": [[r.phase, r.q, r.csub_size, r.excluded_upto, r.status,
                       r.u_total, r.smax] for r in res.history],
        }
        stats = res.stats
        engines.append(stats.engine.as_dict())
        layers["core.candidates"] += stats.candidates_evaluated
        layers["core.backtracks"] += stats.backtrack_attempts
        layers["core.accepted"] += sum(
            r.status in ("accepted", "backtrack-accepted")
            for r in res.history)
        layers["core.cache_hits"] += stats.candidate_cache_hits
        layers["core.cache_lookups"] += (stats.candidate_cache_hits
                                         + stats.candidate_cache_misses)
        layers["core.rtime"].append(res.relative_runtime)
        earlier = [t for st in (res.original, *res.per_q.values())
                   for t in st.tests]
        verdicts, missed = checks.state_checks(res.final, cells, ctx["seed"],
                                               earlier)
        layers["atpg.tests_miss_detected"] += missed
        found = checks.equivalent(original, res.final.circuit, cells,
                                  ctx["seed"]) + verdicts
        if res.original.n_aborted:
            found.append(f"{name}: original analysis has aborted verdicts")
        problems += found
        failed += bool(found)
    engine = _sum_engine(engines)
    counters = _counters(engine)
    counters["candidates_evaluated"] = layers["core.candidates"]
    rtimes = layers.pop("core.rtime")
    layers["core.rtime"] = sum(rtimes) / len(rtimes) if rtimes else 0.0
    return {
        "ops": len(results), "failed_ops": failed, "problems": problems,
        "outputs": outputs, "counters": counters, "engine": engine,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# physical_scale: PDesign + fault extraction on a generated multiplier
# ----------------------------------------------------------------------

def _gen_mul(width: int) -> str:
    path = os.path.join(ROOT, "examples", "netlists", "gen_benchmarks.py")
    spec = importlib.util.spec_from_file_location("gen_benchmarks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.gen_mul32(width)


def physical_setup(ctx: dict) -> None:
    import time

    from repro.library import osu018_library
    from repro.netlist.ingest import ingest_text

    width = int(ctx["params"]["design"].split("(")[1].rstrip(")"))
    ctx["library"] = library = osu018_library()
    ctx["cells"] = cells = {c.name: c for c in library}
    text = _gen_mul(width)
    t0 = time.perf_counter()
    design = ingest_text(text, "bench", cells=cells, name=f"mul{width}")
    ctx["ingest_s"] = time.perf_counter() - t0
    if design.circuit is None:
        raise RuntimeError(design.report.render())
    ctx["circuit"] = design.circuit


def physical_run(ctx: dict):
    from repro.dfm import translate
    from repro.utils.observability import EngineStats

    pd_module = importlib.import_module("repro.physical.pdesign")
    stats = EngineStats()
    physical = pd_module.pdesign(ctx["circuit"], ctx["cells"],
                                 seed=ctx["seed"])
    fault_set = translate.build_fault_set(
        ctx["circuit"], ctx["library"], physical.layout, stats=stats)
    return physical, fault_set, stats


def physical_finish(ctx: dict, result) -> dict:
    physical, fault_set, stats = result
    by_guideline: Dict[str, int] = {}
    for fault in fault_set.external:
        by_guideline[fault.guideline] = by_guideline.get(fault.guideline, 0) + 1
    outputs = {
        "wirelength": physical.layout.wirelength(),
        "external_by_guideline": dict(sorted(by_guideline.items())),
        "F": len(fault_set), "F_internal": len(fault_set.internal),
        "delay": physical.delay, "power": physical.total_power,
    }
    problems = checks.illegal_placement(physical.layout)
    engine = stats.as_dict()
    return {
        "ops": 1, "failed_ops": int(bool(problems)), "problems": problems,
        "outputs": outputs, "counters": _counters(engine), "engine": engine,
        "layers": {"netlist.ingest_s": ctx["ingest_s"]},
    }


# ----------------------------------------------------------------------
# multicore_sat: analyze_design with process workers
# ----------------------------------------------------------------------

def multicore_setup(ctx: dict) -> None:
    from repro.bench import build_benchmark
    from repro.library import osu018_library

    ctx["library"] = library = osu018_library()
    ctx["circuits"] = [build_benchmark(n, library)
                       for n in ctx["params"]["circuits"]]


def multicore_run(ctx: dict):
    """Process-parallel analysis; serial in the ``reference`` mode."""
    from repro.core import flow

    reference = ctx["mode"] == "reference"
    seed = ctx["params"]["config_seed"]
    return [
        flow.analyze_design(
            c, ctx["library"], seed=seed, atpg_seed=seed,
            workers=1 if reference else ctx["params"]["workers"],
            exec_mode=None if reference else ctx["params"]["exec_mode"],
        )
        for c in ctx["circuits"]
    ]


def multicore_finish(ctx: dict, states) -> dict:
    cells = {c.name: c for c in ctx["library"]}
    outputs, problems, failed = {}, [], 0
    for state in states:
        # Sharding the SAT phase may change the generated test set (see
        # run_atpg), so only the Table I row must match the serial run.
        outputs[state.circuit.name] = _state_outputs(state, with_tests=False)
        found, _ = checks.state_checks(state, cells, ctx["seed"])
        problems += found
        failed += bool(found)
    engine = _sum_engine([s.stats.as_dict() for s in states])
    return {
        "ops": len(states), "failed_ops": failed, "problems": problems,
        "outputs": outputs, "counters": _counters(engine), "engine": engine,
        "layers": {},
    }


def release_workers() -> None:
    """Shut the engine's cached process pools down."""
    from repro.faults import psim

    psim.shutdown_pools()


WORKLOADS = {
    "table1": (table1_setup, table1_run, table1_finish),
    "resynth": (resynth_setup, resynth_run, resynth_finish),
    "physical_scale": (physical_setup, physical_run, physical_finish),
    "multicore_sat": (multicore_setup, multicore_run, multicore_finish),
}

#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # one tiny input per workload

Each pass runs in a fresh Python process, as a user's command does, so
module caches start cold and the process tree of a pass is its own.
Passes repeat until ``--seconds`` is spent; end-to-end metrics are
medians over the untraced passes.  With ``--trace 1`` every other pass
runs with spans (``spans.py``) and the result reports per-layer metrics
instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every operation passed its checks.  README.md describes the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own module, beside this file)
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden")
# Seeds whose outputs are recorded under golden/.
SHIPPED_SEEDS = (0, 1)
# A benchmark run must end within 180 s; no pass starts past this mark.
RUN_BUDGET_S = 150.0
MIN_PASSES = 4
MAX_PASSES = 12

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# ----------------------------------------------------------------------
# Process-tree accounting (used inside a pass process)
# ----------------------------------------------------------------------

def _group_members(pgid: int, exclude: int = -1):
    """(pid, stat fields after the command name) of a process group."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == exclude:
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            yield int(entry), fields


def _my_group():
    """The other members of this process's group (its pool workers)."""
    return _group_members(os.getpgid(0), exclude=os.getpid())


def tree_cpu_s() -> float:
    """CPU seconds of this process, its reaped children and live members
    of its process group (pooled workers are not reaped inside a pass)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + children.ru_utime + children.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    for _pid, fields in _my_group():
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def _hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Sum of the peak resident sizes of this process and the live
    members of its process group."""
    total = _hwm_kb("self")
    for pid, _fields in _my_group():
        total += _hwm_kb(pid)
    return total / 1024.0


# ----------------------------------------------------------------------
# One pass (child process)
# ----------------------------------------------------------------------

def child_main(spec: dict) -> int:
    ctx = {"seed": spec["seed"], "mode": spec["mode"],
           "params": workloads.params_for(spec["workload"], spec["smoke"]),
           "runs_root": os.path.join(OUT, f"runs-{os.getpid()}")}
    setup, run, finish = workloads.WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(pass_no=spec["pass_no"])
        tracer.install()
    out = {"ok": False, "error": None, "traced": bool(tracer),
           "mode": spec["mode"], "pid": os.getpid()}
    try:
        setup(ctx)
        out["setup_s"] = time.perf_counter() - spec["t_spawn"]
        cpu0 = tree_cpu_s()
        t0 = time.perf_counter()
        root = None
        if tracer is not None:
            root = tracer.begin("bench.pass")
            tracer.root_index = len(tracer.spans) - 1
        try:
            result = run(ctx)
        finally:
            t1 = time.perf_counter()
            if root is not None:
                tracer.end(root)
                tracer.root_index = None
        out["wall_s"] = t1 - t0
        out["cpu_s"] = tree_cpu_s() - cpu0
        out["peak_rss_mb"] = tree_peak_rss_mb()
        workloads.release_workers()
        out.update(finish(ctx, result))
        if tracer is not None:
            tracer.uninstall()
            out["spans"] = tracer.summary(root)
            events = tracer.chrome_events(spec["t_spawn"])
            with open(spec["trace_out"], "w", encoding="utf-8") as fh:
                json.dump(events, fh)
        out["ok"] = True
    except Exception:  # noqa: BLE001 - a failed pass is reported, not lost
        out["error"] = traceback.format_exc()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


# ----------------------------------------------------------------------
# Orchestration (parent process)
# ----------------------------------------------------------------------

def _become_subreaper() -> None:
    """Orphaned pool workers of a pass re-parent to us, so we reap them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _group_alive(pgid: int) -> bool:
    return any(fields[0] != b"Z" for _pid, fields in _group_members(pgid))


def _stop_group(pgid: int) -> None:
    """Kill what is left of a pass's process group and reap it."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        while True:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
        if not _group_alive(pgid) or time.monotonic() > deadline:
            return
        time.sleep(0.05)


def run_pass(workload: str, seed: int, *, traced: bool, mode: str,
             smoke: bool, pass_no: int, timeout: float) -> dict:
    out_path = os.path.join(OUT, f"pass-{os.getpid()}-{pass_no}.json")
    trace_path = os.path.join(OUT, f"spans-{os.getpid()}-{pass_no}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    spec = {"workload": workload, "seed": seed, "trace": traced,
            "mode": mode, "smoke": smoke, "pass_no": pass_no,
            "out": out_path, "trace_out": trace_path}
    start = time.perf_counter()
    spec["t_spawn"] = start
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child",
         json.dumps(spec)],
        cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        pass
    finally:
        _stop_group(proc.pid)
        proc.wait()
    result = {"ok": False, "error": f"pass process exited {proc.returncode}",
              "traced": traced, "mode": mode}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(out_path)
    result["elapsed_s"] = time.perf_counter() - start
    if os.path.exists(trace_path):
        with open(trace_path, encoding="utf-8") as fh:
            result["events"] = json.load(fh)
        os.remove(trace_path)
    return result


def host_info() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # not a git checkout
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "machine": platform.machine(),
    }


def _load_golden(workload: str) -> dict:
    path = os.path.join(GOLDEN, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(passes, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced passes (medians for times)."""
    traced = [p for p in passes if p.get("traced") and p.get("ok")]
    if not traced:  # every metric still appears, as 0
        traced = [{"spans": {}, "engine": {}, "layers": {}, "wall_s": 0.0}]

    def med(fn):
        return _median([fn(p) for p in traced])

    def span(name):
        return lambda p: p["spans"].get(name, 0.0)

    def eng(name):
        return lambda p: p["engine"].get(name, 0)

    def phase(name):
        return lambda p: p["engine"].get("phase_seconds", {}).get(name, 0.0)

    def lay(name):
        return lambda p: p["layers"].get(name, 0)

    first = traced[0]
    tasks = lay("runner.tasks")(first)
    inherited, proved = eng("verdicts_inherited")(first), eng(
        "verdicts_proved")(first)
    cand = lay("core.candidates")(first)
    lookups = lay("core.cache_lookups")(first)
    m = {
        "runner.tasks": tasks,
        "runner.task_s": med(span("runner.task.s")),
        "runner.overhead_s": med(
            lambda p: p["wall_s"] - p["spans"].get("runner.task.s", 0.0)
        ) if tasks else 0.0,
        "runner.self_s": med(span("runner.self_s")),
        "netlist.ingest_s": med(lay("netlist.ingest_s")),
        "netlist.replace_s": med(span("netlist.replace.s")),
        "netlist.self_s": med(span("netlist.self_s")),
        "synthesis.calls": span("synthesis.synthesize.calls")(first),
        "synthesis.s": med(span("synthesis.synthesize.s")),
        "synthesis.fail": span("synthesis.synthesize.fail")(first),
        "synthesis.self_s": med(span("synthesis.self_s")),
        "physical.pdesign_calls": span("physical.pdesign.calls")(first),
        "physical.place_s": med(span("physical.place.s")),
        "physical.route_s": med(span("physical.route.s")),
        "physical.sta_s": med(span("physical.sta.s")),
        "physical.power_s": med(span("physical.power.s")),
        "physical.nofit": span("physical.pdesign.fail")(first),
        "physical.self_s": med(span("physical.self_s")),
        "dfm.check_calls": span("dfm.check.calls")(first),
        "dfm.check_s": med(span("dfm.check.s")),
        "dfm.violations": span("dfm.check.size")(first),
        "dfm.translate_s": med(span("dfm.translate.s")),
        "dfm.self_s": med(span("dfm.self_s")),
        "faults.enumerate_s": med(span("faults.enumerate.s")),
        "faults.extracted": eng("faults_extracted")(first),
        "faults.carried": eng("faults_carried")(first),
        "faults.simulated": eng("faults_simulated")(first),
        "faults.events": eng("events_propagated")(first),
        "faults.batches": eng("batches")(first),
        "faults.proc_shards": eng("proc_shards")(first),
        "faults.self_s": med(span("faults.self_s")),
        "atpg.run_s": med(span("atpg.run.s")),
        "atpg.random_s": med(phase("atpg.random")),
        "atpg.sat_s": med(phase("atpg.sat")),
        "atpg.compaction_s": med(phase("atpg.compaction")),
        "atpg.initial_tests_s": med(phase("atpg.initial_tests")),
        "atpg.sat_calls": eng("sat_calls")(first),
        "atpg.sat_conflicts": eng("sat_conflicts")(first),
        "atpg.sat_propagations": eng("sat_propagations")(first),
        "atpg.verdicts_proved": proved,
        "atpg.verdicts_inherited": inherited,
        "atpg.inherit_ratio": (inherited / (inherited + proved)
                               if inherited + proved else 0.0),
        "atpg.sat_aborts": eng("sat_aborts")(first),
        "atpg.sat_shards": eng("sat_shards")(first),
        "atpg.tests_miss_detected": lay("atpg.tests_miss_detected")(first),
        "atpg.self_s": med(span("atpg.self_s")),
        "core.classify_internal_s": med(span("core.classify_internal.s")),
        "core.cluster_s": med(span("core.cluster.s")),
        "core.candidates": cand,
        "core.cache_hit_ratio": (lay("core.cache_hits")(first) / lookups
                                 if lookups else 0.0),
        "core.accept_ratio": (lay("core.accepted")(first) / cand
                              if cand else 0.0),
        "core.backtracks": lay("core.backtracks")(first),
        "core.rtime": med(lay("core.rtime")),
        "core.self_s": med(span("core.self_s")),
        "trace.uncovered_share": med(
            lambda p: p["spans"].get("trace.uncovered_s", 0.0) / p["wall_s"]
            if p["wall_s"] else 0.0),
        "trace.overhead_s": med(lambda p: p["wall_s"]) - untraced_wall,
        "trace.spans": span("trace.spans")(first),
    }
    return m


PER_LAYER_UNITS = {
    "share": "ratio", "ratio": "ratio", "rtime": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    suffix = name.rsplit("_", 1)[-1].rsplit(".", 1)[-1]
    return PER_LAYER_UNITS.get(suffix, "count")


def measure(workload: str, seed: int, seconds: int, trace: bool,
            smoke: bool = False, min_passes: int = MIN_PASSES) -> dict:
    """Run passes for *seconds*, check them, and aggregate the metrics."""
    os.makedirs(OUT, exist_ok=True)
    start = time.perf_counter()
    passes = []
    # Four passes at least: on a shared host a pass now and then runs far
    # slower than its neighbours, and the median of four ignores it.  A
    # traced run alternates untraced and traced passes.
    while True:
        traced = trace and len(passes) % 2 == 1
        left = RUN_BUDGET_S - (time.perf_counter() - start)
        passes.append(run_pass(workload, seed, traced=traced, mode="timed",
                               smoke=smoke, pass_no=len(passes),
                               timeout=left))
        elapsed = time.perf_counter() - start
        mean = elapsed / len(passes)
        if len(passes) >= MAX_PASSES or elapsed + 2 * mean > RUN_BUDGET_S:
            break
        if len(passes) >= min_passes and elapsed + mean > seconds:
            break
    golden = {} if smoke else _load_golden(workload)
    golden = golden.get(str(seed)) or golden.get(workloads.ANY_SEED)
    if workload == "multicore_sat" and not golden:
        # No recorded serial result applies: make one now.
        left = RUN_BUDGET_S + 20 - (time.perf_counter() - start)
        passes.append(run_pass(workload, seed, traced=False,
                               mode="reference", smoke=smoke,
                               pass_no=len(passes), timeout=left))

    params = workloads.params_for(workload, smoke)
    nominal = len(params.get("circuits", [None]))
    problems, attempted, failed = [], 0, 0
    ref = next((p for p in passes if p.get("ok")), None)
    for i, p in enumerate(passes):
        if not p.get("ok"):
            attempted += nominal
            failed += nominal
            problems.append(f"pass {i} ({p['mode']}) raised:\n{p['error']}")
            continue
        attempted += p["ops"]
        bad = p["failed_ops"]
        problems += [f"pass {i}: {msg}" for msg in p["problems"]]
        if p["outputs"] != ref["outputs"]:
            problems.append(f"pass {i} ({p['mode']}): outputs differ from "
                            "pass 0 for the same seed")
            bad = p["ops"]
        if golden and p["outputs"] != golden:
            problems.append(f"pass {i}: outputs differ from the golden "
                            f"outputs of seed {seed}")
            bad = p["ops"]
        failed += bad

    timed = [p for p in passes if p.get("ok") and p["mode"] == "timed"]
    unstable = sorted({
        k for p in timed for k, v in p["counters"].items()
        if v != timed[0]["counters"].get(k)
    })
    untraced = [p for p in timed if not p["traced"]]
    metrics = {
        "wall_s": _median([p["wall_s"] for p in untraced]),
        "cpu_s": _median([p["cpu_s"] for p in untraced]),
        "setup_s": _median([p["setup_s"] for p in untraced]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
    }
    layers = _layer_metrics(passes, metrics["wall_s"]) if trace else {}
    if trace:
        layers["determinism.unstable_counters"] = len(unstable)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "params": params, "host": host_info(),
        "passes": [{k: v for k, v in p.items() if k != "events"}
                   for p in passes],
        "problems": problems, "attempted": attempted, "failed": failed,
        "metrics": metrics, "layers": layers,
        "counters": timed[0]["counters"] if timed else {},
        "unstable_counters": unstable,
        "events": [e for p in passes for e in p.get("events", [])],
    }


def report(res: dict) -> None:
    """Human-readable lines, the record file and the trace file."""
    tag = f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}"
    if res["smoke"]:
        tag = f"smoke-{tag}"
    print(f"host: {json.dumps(res['host'], sort_keys=True)}")
    print(f"workload: {res['workload']} seed={res['seed']} "
          f"params={json.dumps(res['params'], sort_keys=True)}")
    n_untraced = sum(1 for p in res["passes"]
                     if p.get("ok") and not p["traced"]
                     and p["mode"] == "timed")
    print(f"passes: {len(res['passes'])} ({n_untraced} untraced timed)")
    for name, unit in END_TO_END.items():
        print(f"  {name:14s} {res['metrics'][name]:12.4f} {unit}")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'error_rate':14s} {rate:12.4f} ratio "
          f"({res['failed']}/{res['attempted']} operations)")
    print(f"counters: {json.dumps(res['counters'], sort_keys=True)}")
    if res["unstable_counters"]:
        print(f"UNSTABLE counters between passes: {res['unstable_counters']}")
    for name, value in res["layers"].items():
        print(f"  {name:28s} {value:14.4f} {_unit(name)}")
    if res["trace"] and res["workload"] == "multicore_sat":
        print("note: spans do not reach the pool worker processes; the "
              "engine counters (faults.proc_shards, atpg.sat_shards) "
              "stand in for them")
    for msg in res["problems"]:
        print(f"PROBLEM: {msg}")
    os.makedirs(OUT, exist_ok=True)
    record = {k: v for k, v in res.items() if k != "events"}
    record["error_rate"] = rate
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if res["events"]:
        import spans

        path = os.path.join(OUT, f"trace-{tag}.json")
        spans.write_chrome(path, res["events"])
        print(f"trace: {os.path.relpath(path, ROOT)}")


def result_line(res: dict) -> str:
    if res["trace"]:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": res["metrics"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    return json.dumps({
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": metrics,
    })


def record_golden() -> int:
    """Write golden/<workload>.json for the shipped seeds.

    A seed-independent workload gets one record that applies to every
    seed; multicore_sat's is made by a serial pass, so every later pass
    is compared with the serial result.
    """
    os.makedirs(GOLDEN, exist_ok=True)
    for workload in workloads.WORKLOADS:
        golden = {}
        if workloads.seed_independent(workload):
            keys = [(workloads.ANY_SEED, SHIPPED_SEEDS[0])]
        else:
            keys = [(str(seed), seed) for seed in SHIPPED_SEEDS]
        mode = "reference" if workload == "multicore_sat" else "timed"
        for key, seed in keys:
            p = run_pass(workload, seed, traced=False, mode=mode,
                         smoke=False, pass_no=0, timeout=600)
            if not p.get("ok") or p["problems"]:
                print(f"{workload} seed {seed}: {p.get('error')} "
                      f"{p.get('problems')}", file=sys.stderr)
                return 1
            golden[key] = p["outputs"]
            print(f"{workload} {key}: recorded ({p['wall_s']:.2f} s)")
        with open(os.path.join(GOLDEN, f"{workload}.json"), "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def smoke() -> int:
    """The benchmark's own test: one small input per workload, traced."""
    ok = True
    for workload in workloads.WORKLOADS:
        res = measure(workload, 0, 1, trace=True, smoke=True, min_passes=2)
        report(res)
        line = json.loads(result_line(res))
        ok &= line["correct"] and res["attempted"] > 0
        print(f"smoke {workload}: {'ok' if line['correct'] else 'FAILED'}")
    return 0 if ok else 1


def _missing_sources() -> list:
    needed = [os.path.join(ROOT, "src", "repro", "__init__.py"),
              os.path.join(ROOT, "examples", "netlists", "gen_benchmarks.py")]
    return [p for p in needed if not os.path.exists(p)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(
        "table1", "resynth", "physical_scale", "multicore_sat"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run one small input per workload and check it")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden/ for the shipped seeds")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(json.loads(args.child))
    missing = _missing_sources()
    if missing:
        print("error: run from a repository checkout; missing "
              + ", ".join(os.path.relpath(p, ROOT) for p in missing),
              file=sys.stderr)
        return 2
    _become_subreaper()
    # Turn SIGTERM into SystemExit so a running pass's group is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.smoke:
        return smoke()
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(res)
    print(result_line(res))
    return 0 if res["failed"] == 0 and not res["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())

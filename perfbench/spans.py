"""In-memory spans around the calls into each layer of ``repro``.

The tracer wraps public functions *where their callers bind them* (for
example ``repro.core.flow.pdesign`` rather than the definition in
``repro.physical.pdesign``), so nothing under ``src/`` changes and the
untraced code path is exactly what users run.  Each span records its
name, start, end, parent, pass number and thread; spans stay in memory
until :func:`write_chrome` dumps them as Chrome trace-event JSON
(viewable in Perfetto or ``chrome://tracing``).

Spans cannot reach forked worker processes: a pool worker inherits the
wrappers but its spans die with it.  On the multicore workload the
engine counters stand in for the workers' share.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name) for every wrapped binding.  The layer
# of a span is the first dotted component of its name.
WRAPPED: List[Tuple[str, str, str]] = [
    # runner: the registered task body; its caller looks it up by kind
    ("repro.runner.registry", "_TASKS:analyze", "runner.task"),
    # core
    ("repro.core", "analyze_design", "core.analyze"),
    ("repro.core.flow", "analyze_design", "core.analyze"),
    ("repro.core.resynthesis", "analyze_design", "core.analyze"),
    ("repro.core.resynthesis", "classify_internal", "core.classify_internal"),
    ("repro.core.flow", "cluster_undetectable", "core.cluster"),
    ("repro.core.flow", "cluster_undetectable_incremental", "core.cluster"),
    # netlist
    ("repro.core.resynthesis", "extract_subcircuit", "netlist.replace"),
    ("repro.core.resynthesis", "replace_subcircuit", "netlist.replace"),
    # synthesis
    ("repro.core.resynthesis", "synthesize", "synthesis.synthesize"),
    # physical
    ("repro.core.flow", "pdesign", "physical.pdesign"),
    ("repro.core.resynthesis", "pdesign", "physical.pdesign"),
    ("repro.physical.pdesign", "pdesign", "physical.pdesign"),
    ("repro.physical.pdesign", "place", "physical.place"),
    ("repro.physical.pdesign", "route", "physical.route"),
    ("repro.physical.pdesign", "static_timing", "physical.sta"),
    ("repro.physical.pdesign", "power_analysis", "physical.power"),
    # dfm
    ("repro.core.flow", "build_fault_set", "dfm.build_fault_set"),
    ("repro.dfm.translate", "build_fault_set", "dfm.build_fault_set"),
    ("repro.dfm.translate", "check_layout", "dfm.check"),
    ("repro.dfm.translate", "external_faults_from_violations",
     "dfm.translate"),
    # faults
    ("repro.dfm.translate", "enumerate_internal_faults", "faults.enumerate"),
    ("repro.core.flow", "enumerate_internal_faults", "faults.enumerate"),
    # atpg
    ("repro.core.flow", "run_atpg", "atpg.run"),
]

# Exceptions that mark a failed layer call (counted, then re-raised).
FAIL_EXCEPTIONS = {
    "synthesis.synthesize": ("repro.synthesis.techmap", "TechmapError"),
    "physical.pdesign": ("repro.physical.placement", "PlacementError"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_no", "tid",
                 "failed", "size")

    def __init__(self, name, start, parent, pass_no, tid):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pass_no = pass_no
        self.tid = tid
        self.failed = False
        self.size = 0


class Tracer:
    """Records nested spans per thread; one instance per process."""

    def __init__(self, pass_no: int = 0):
        self.pass_no = pass_no
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        # Spans opened on a thread with no open span (a runner or
        # speculation worker thread) hang under the pass's root span.
        self.root_index: Optional[int] = None

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(),
                    stack[-1] if stack else self.root_index, self.pass_no,
                    threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    # -- wrapping -------------------------------------------------------
    def install(self) -> None:
        """Wrap every binding in :data:`WRAPPED`."""
        fails = {}
        for name, (mod, cls) in FAIL_EXCEPTIONS.items():
            fails[name] = getattr(importlib.import_module(mod), cls)
        for mod_name, attr, span_name in WRAPPED:
            module = importlib.import_module(mod_name)
            if attr.startswith("_TASKS:"):
                module._ensure_builtin_tasks()
                table, key = module._TASKS, attr.split(":", 1)[1]
                original = table[key]
                table[key] = self._wrap(original, span_name, fails)
                self._restore.append(
                    lambda t=table, k=key, o=original: t.__setitem__(k, o))
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name, fails))
            self._restore.append(
                lambda m=module, a=attr, o=original: setattr(m, a, o))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap(self, fn, span_name: str, fails: Dict[str, type]):
        tracer = self
        fail_exc = fails.get(span_name)

        def wrapper(*args, **kwargs):
            span = tracer.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.failed = fail_exc is not None and isinstance(
                    exc, fail_exc)
                raise
            finally:
                tracer.end(span)
            if span_name == "dfm.check":
                span.size = len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    # -- analysis -------------------------------------------------------
    def summary(self, root: Span) -> Dict[str, float]:
        """Per-name totals and per-layer self times under *root*.

        A span's self time is its duration minus the time its direct
        children cover; children of one span run on the span's thread,
        one after another, so their durations do not overlap.  The
        root's self time is the part of the pass no layer span covers.
        """
        index = {id(s): i for i, s in enumerate(self.spans)}
        root_i = index[id(root)]
        child_time = [0.0] * len(self.spans)
        inside = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            p = s.parent
            while p is not None and p != root_i:
                p = self.spans[p].parent
            inside[i] = p == root_i or i == root_i
            if s.parent is not None and inside[i]:
                child_time[s.parent] += s.end - s.start
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if not inside[i]:
                continue
            dur = s.end - s.start
            layer = s.name.split(".", 1)[0]
            self_s = max(0.0, dur - child_time[i])
            if i == root_i:
                out["trace.uncovered_s"] = self_s
                continue
            out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + dur
            out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
            if s.failed:
                out[f"{s.name}.fail"] = out.get(f"{s.name}.fail", 0) + 1
            if s.size:
                out[f"{s.name}.size"] = out.get(f"{s.name}.size", 0) + s.size
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
        out["trace.spans"] = sum(inside) - 1
        return out

    def chrome_events(self, t_origin: float) -> List[dict]:
        pid = os.getpid()
        return [
            {
                "name": s.name, "cat": s.name.split(".", 1)[0], "ph": "X",
                "ts": round((s.start - t_origin) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "pid": pid, "tid": s.tid,
                "args": {"pass": s.pass_no, "parent": s.parent},
            }
            for s in self.spans
        ]


def write_chrome(path: str, events: List[dict]) -> None:
    """Write *events* as a Chrome trace-event JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

"""Lightweight observability counters for the fault-analysis engine.

:class:`EngineStats` is a plain bag of monotonically increasing counters
plus per-phase wall-clock accumulators.  One instance travels through a
whole analysis (fault simulation, ATPG, compaction) and is surfaced on
:class:`repro.atpg.engine.AtpgResult` / :class:`repro.core.flow.DesignState`
so benchmarks and regression tests can assert on engine behaviour
(e.g. "the evaluator compile count stays O(#distinct cells)") instead of
re-deriving it from timing alone.

This module sits in the ``utils`` layer on purpose: every layer above it
(netlist simulation, fault simulation, ATPG, flow) records into it, so it
must not import any of them.
"""

from __future__ import annotations

import threading
import time
import warnings as _pywarnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

# All duration measurements in the engine go through time.perf_counter():
# it is monotonic (wall clock adjustments cannot produce negative phase
# durations in merged stats) and has the highest available resolution.

# Guards EngineStats.merge: worker paths accumulate into private per-chunk
# instances and fold them into the caller's shared instance in one atomic
# step, so counters are never lost when merges race.
_MERGE_LOCK = threading.Lock()

# Cap on the ``EngineStats.warnings`` *display* list.  A long campaign
# that degrades once per batch would otherwise accumulate thousands of
# identical strings (every merge used to extend the list verbatim);
# occurrences past the cap are still counted in ``warning_counts``.
WARNINGS_CAP = 64


def _warning_code(entry: str) -> str:
    """The ``CODE`` of a ``"CODE: message"`` warning entry."""
    return entry.split(":", 1)[0]


@dataclass
class EngineStats:
    """Counters for one fault-analysis run (all additive / mergeable).

    * ``faults_simulated`` — fault/batch simulations performed (one count
      per fault per :func:`repro.faults.fsim.fault_simulate` call);
    * ``events_propagated`` — gate evaluations popped from the
      event-driven propagation queue across all faults;
    * ``good_simulations`` / ``good_cache_hits`` — good-machine
      simulations run vs. served from the per-circuit good-value cache;
    * ``plan_builds`` / ``plan_cache_hits`` — compiled circuit plans
      built vs. reused;
    * ``eval_compiles`` — distinct ``(n_inputs, truth_table)`` cell
      evaluators compiled while building plans;
    * ``eval_cache_hits`` / ``eval_cache_misses`` — lookups into the
      bounded global evaluator cache served vs. compiled fresh;
    * ``verdicts_inherited`` / ``verdicts_proved`` — behaviour classes
      whose detected/undetectable verdict was carried over from a
      functionally-equivalent prior analysis vs. proved in this run;
    * ``faults_carried`` / ``faults_extracted`` — fault objects reused
      from a previous design state's fault set vs. enumerated fresh;
    * ``clusters_reused`` / ``clusters_recomputed`` — undetectable-fault
      clusters carried over unchanged by the incremental union-find
      update vs. re-derived after a local circuit change;
    * ``batches`` — pattern batches fault-simulated;
    * ``wide_batches`` — batches simulated by the wide numpy backend
      (a subset of ``batches``);
    * ``words_per_batch`` — widest wide batch seen, in 64-bit words
      (merged by max, not sum: it is a high-water mark, so the counter
      of a merged run equals the widest of its parts);
    * ``vector_ops`` — vectorized array operations the wide backend
      issued: one per gate evaluated during wide good simulation and
      dense cone propagation (the wide analogue of
      ``events_propagated``, which only the event backend records);
    * ``proc_shards`` — fault shards dispatched to process workers;
    * ``proc_workers`` — widest process pool used, in workers (a
      high-water mark like ``words_per_batch``: merged by max);
    * ``shm_bytes`` — bytes of good-value/pattern arrays placed in
      ``multiprocessing.shared_memory`` blocks for zero-copy worker
      attachment;
    * ``shard_imbalance`` — worst LPT shard balance seen: the largest
      shard's propagation-cost estimate divided by the ideal (total
      cost / shards).  1.0 is perfect balance; merged by max;
    * ``ledger_grants`` — worker-count negotiations against the
      campaign :class:`~repro.utils.supervise.CoreLedger` (one per
      pool dispatch running under a scheduler lease or static core
      share; 0 for unmanaged runs);
    * ``ledger_workers`` — widest ledger-granted pool seen (a
      high-water mark like ``proc_workers``: merged by max);
    * ``warnings`` — coded execution warnings (e.g. a requested process
      pool silently falling back to serial would be invisible without
      this): ``"CODE: message"`` strings, appended via :func:`warn_coded`
      so callers without a stats instance still see a Python
      ``RuntimeWarning``.  The list is a bounded *display* set: one
      entry per distinct code (the first message wins), at most
      :data:`WARNINGS_CAP` entries, so merging thousands of worker
      deltas cannot grow it without bound;
    * ``warning_counts`` — total occurrences per warning code,
      including every repeat the capped ``warnings`` list elides;
    * ``sat_calls`` / ``sat_conflicts`` / ``sat_propagations`` — exact
      ATPG solver effort;
    * ``sat_learned`` / ``sat_restarts`` — clauses the CDCL solver
      learned and restarts it took across the run's SAT calls;
    * ``sat_lemmas_reused`` — learned clauses carried live into a later
      fault's decision (summed over decisions: each decision counts the
      lemmas earlier decisions left in the shared solver — the quantity
      the incremental engine exists to keep high);
    * ``sat_shards`` — site-cohesive fault shards the deterministic SAT
      phase dispatched to process workers (0 for a serial phase);
    * ``sat_workers`` — widest ATPG worker pool used (a high-water mark
      like ``proc_workers``: merged by max);
    * ``sat_aborts`` — per-fault SAT decisions that ran out of their
      resource budget (deadline / conflict / decision limits);
    * ``sat_abort_reasons`` — occurrences per tripped budget
      (``deadline`` / ``conflicts`` / ``decisions`` / ``injected``),
      summing to ``sat_aborts`` when every abort recorded a reason;
    * ``hung_workers`` — process workers reaped by the supervisor after
      their shard's heartbeat went stale past the shard deadline;
    * ``shard_retries`` — shards re-submitted to a rebuilt pool after a
      hang (each lost shard is retried exactly once before the run
      falls back from processes to the serial path);
    * ``supervise_wakeups`` — bounded waits the supervisor loop issued
      while watching shard futures (0 when supervision is disabled);
    * ``breaker_state`` — last observed circuit-breaker state per
      ``(phase, backend, topology)`` key (``closed`` / ``open`` /
      ``half-open``; merged by update — the later observation wins);
    * ``verdicts_aborted`` — behaviour classes left unclassified by an
      aborted decision (never counted as undetectable);
    * ``cache_integrity_failures`` — corrupted good-value cache entries
      detected by the checksum verification and recomputed;
    * ``degradations`` — human-readable records of every graceful
      degradation taken during the run (aborted faults, approximate
      mode, repaired cache corruption).  Deterministic given the same
      inputs and budget, so normalized-report comparisons still work;
    * ``phase_seconds`` — wall-clock per engine phase.
    """

    faults_simulated: int = 0
    events_propagated: int = 0
    good_simulations: int = 0
    good_cache_hits: int = 0
    plan_builds: int = 0
    plan_cache_hits: int = 0
    eval_compiles: int = 0
    eval_cache_hits: int = 0
    eval_cache_misses: int = 0
    verdicts_inherited: int = 0
    verdicts_proved: int = 0
    faults_carried: int = 0
    faults_extracted: int = 0
    clusters_reused: int = 0
    clusters_recomputed: int = 0
    batches: int = 0
    wide_batches: int = 0
    words_per_batch: int = 0
    vector_ops: int = 0
    proc_shards: int = 0
    proc_workers: int = 0
    shm_bytes: int = 0
    shard_imbalance: float = 0.0
    ledger_grants: int = 0
    ledger_workers: int = 0
    warnings: List[str] = field(default_factory=list)
    warning_counts: Dict[str, int] = field(default_factory=dict)
    sat_calls: int = 0
    sat_conflicts: int = 0
    sat_propagations: int = 0
    sat_learned: int = 0
    sat_restarts: int = 0
    sat_lemmas_reused: int = 0
    sat_shards: int = 0
    sat_workers: int = 0
    sat_aborts: int = 0
    sat_abort_reasons: Dict[str, int] = field(default_factory=dict)
    hung_workers: int = 0
    shard_retries: int = 0
    supervise_wakeups: int = 0
    breaker_state: Dict[str, str] = field(default_factory=dict)
    verdicts_aborted: int = 0
    cache_integrity_failures: int = 0
    degradations: List[str] = field(default_factory=list)
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of a ``with`` block under *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, time.perf_counter() - start)

    def merge(self, other: "EngineStats") -> None:
        """Fold *other*'s counters into this instance (atomically)."""
        with _MERGE_LOCK:
            self._merge_unlocked(other)

    def _merge_unlocked(self, other: "EngineStats") -> None:
        self.faults_simulated += other.faults_simulated
        self.events_propagated += other.events_propagated
        self.good_simulations += other.good_simulations
        self.good_cache_hits += other.good_cache_hits
        self.plan_builds += other.plan_builds
        self.plan_cache_hits += other.plan_cache_hits
        self.eval_compiles += other.eval_compiles
        self.eval_cache_hits += other.eval_cache_hits
        self.eval_cache_misses += other.eval_cache_misses
        self.verdicts_inherited += other.verdicts_inherited
        self.verdicts_proved += other.verdicts_proved
        self.faults_carried += other.faults_carried
        self.faults_extracted += other.faults_extracted
        self.clusters_reused += other.clusters_reused
        self.clusters_recomputed += other.clusters_recomputed
        self.batches += other.batches
        self.wide_batches += other.wide_batches
        self.words_per_batch = max(
            self.words_per_batch, other.words_per_batch
        )
        self.vector_ops += other.vector_ops
        self.proc_shards += other.proc_shards
        self.proc_workers = max(self.proc_workers, other.proc_workers)
        self.shm_bytes += other.shm_bytes
        self.shard_imbalance = max(
            self.shard_imbalance, other.shard_imbalance
        )
        self.ledger_grants += other.ledger_grants
        self.ledger_workers = max(self.ledger_workers, other.ledger_workers)
        self._merge_warnings(other)
        self.sat_calls += other.sat_calls
        self.sat_conflicts += other.sat_conflicts
        self.sat_propagations += other.sat_propagations
        self.sat_learned += other.sat_learned
        self.sat_restarts += other.sat_restarts
        self.sat_lemmas_reused += other.sat_lemmas_reused
        self.sat_shards += other.sat_shards
        self.sat_workers = max(self.sat_workers, other.sat_workers)
        self.sat_aborts += other.sat_aborts
        for reason, n in other.sat_abort_reasons.items():
            self.sat_abort_reasons[reason] = \
                self.sat_abort_reasons.get(reason, 0) + n
        self.hung_workers += other.hung_workers
        self.shard_retries += other.shard_retries
        self.supervise_wakeups += other.supervise_wakeups
        self.breaker_state.update(other.breaker_state)
        self.verdicts_aborted += other.verdicts_aborted
        self.cache_integrity_failures += other.cache_integrity_failures
        self.degradations.extend(other.degradations)
        for name, seconds in other.phase_seconds.items():
            self.add_phase(name, seconds)

    def _merge_warnings(self, other: "EngineStats") -> None:
        """Fold warnings in: dedupe the display list by code, sum counts.

        An instance whose ``warnings`` list was populated directly
        (hand-constructed in tests, or by pre-``warning_counts`` code)
        has an empty count map; its effective counts are derived from
        the list so no occurrence is lost.
        """
        for inst in (self, other):
            if not inst.warning_counts and inst.warnings:
                for entry in inst.warnings:
                    code = _warning_code(entry)
                    inst.warning_counts[code] = \
                        inst.warning_counts.get(code, 0) + 1
        for code, n in other.warning_counts.items():
            self.warning_counts[code] = self.warning_counts.get(code, 0) + n
        represented = {_warning_code(e) for e in self.warnings}
        for entry in other.warnings:
            code = _warning_code(entry)
            if code in represented or len(self.warnings) >= WARNINGS_CAP:
                continue
            represented.add(code)
            self.warnings.append(entry)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (used by the perf harness)."""
        out: Dict[str, object] = {
            "faults_simulated": self.faults_simulated,
            "events_propagated": self.events_propagated,
            "good_simulations": self.good_simulations,
            "good_cache_hits": self.good_cache_hits,
            "plan_builds": self.plan_builds,
            "plan_cache_hits": self.plan_cache_hits,
            "eval_compiles": self.eval_compiles,
            "eval_cache_hits": self.eval_cache_hits,
            "eval_cache_misses": self.eval_cache_misses,
            "verdicts_inherited": self.verdicts_inherited,
            "verdicts_proved": self.verdicts_proved,
            "faults_carried": self.faults_carried,
            "faults_extracted": self.faults_extracted,
            "clusters_reused": self.clusters_reused,
            "clusters_recomputed": self.clusters_recomputed,
            "batches": self.batches,
            "wide_batches": self.wide_batches,
            "words_per_batch": self.words_per_batch,
            "vector_ops": self.vector_ops,
            "proc_shards": self.proc_shards,
            "proc_workers": self.proc_workers,
            "shm_bytes": self.shm_bytes,
            "shard_imbalance": self.shard_imbalance,
            "ledger_grants": self.ledger_grants,
            "ledger_workers": self.ledger_workers,
            "warnings": list(self.warnings),
            "warning_counts": dict(self.warning_counts),
            "sat_calls": self.sat_calls,
            "sat_conflicts": self.sat_conflicts,
            "sat_propagations": self.sat_propagations,
            "sat_learned": self.sat_learned,
            "sat_restarts": self.sat_restarts,
            "sat_lemmas_reused": self.sat_lemmas_reused,
            "sat_shards": self.sat_shards,
            "sat_workers": self.sat_workers,
            "sat_aborts": self.sat_aborts,
            "sat_abort_reasons": dict(self.sat_abort_reasons),
            "hung_workers": self.hung_workers,
            "shard_retries": self.shard_retries,
            "supervise_wakeups": self.supervise_wakeups,
            "breaker_state": dict(self.breaker_state),
            "verdicts_aborted": self.verdicts_aborted,
            "cache_integrity_failures": self.cache_integrity_failures,
            "degradations": list(self.degradations),
            "phase_seconds": dict(self.phase_seconds),
        }
        return out


def warn_coded(
    stats: Optional[EngineStats], code: str, message: str
) -> None:
    """Record a coded execution warning on *stats* and as a RuntimeWarning.

    The double emission is deliberate: ``stats.warnings`` makes the
    event assertable (tests and the runner journal can check that a
    degraded execution mode *announced* itself), and the Python warning
    reaches callers that did not pass a stats instance — a requested
    process pool must never fall back to serial silently.

    ``stats.warnings`` follows the same bounded-display discipline as
    :meth:`EngineStats.merge`: the first message of each code is kept
    (capped at :data:`WARNINGS_CAP` entries), repeats only increment
    ``stats.warning_counts[code]``.  The Python ``RuntimeWarning`` is
    emitted every time; the normal warning filters collapse duplicates.
    """
    if stats is not None:
        stats.warning_counts[code] = stats.warning_counts.get(code, 0) + 1
        represented = any(
            _warning_code(e) == code for e in stats.warnings
        )
        if not represented and len(stats.warnings) < WARNINGS_CAP:
            stats.warnings.append(f"{code}: {message}")
    _pywarnings.warn(f"[{code}] {message}", RuntimeWarning, stacklevel=3)


@dataclass
class ResynthesisStats:
    """Effort counters for one run of the resynthesis procedure.

    * ``candidates_evaluated`` — candidate implementations actually
      synthesized and placed (evaluation-cache misses);
    * ``candidates_speculated`` — candidates whose evaluation was
      started ahead of the in-order acceptance scan;
    * ``candidates_wasted`` — speculated evaluations whose result was
      never consumed by the pass that requested them (they stay in the
      evaluation cache and may still pay off in a later pass or q step);
    * ``candidate_cache_hits`` / ``candidate_cache_misses`` — lookups
      into the (state, replacement, allowed-cells) evaluation cache;
    * ``backtrack_attempts`` — attempts issued by the Section III-C
      backtracking search;
    * ``engine`` — merged :class:`EngineStats` of every fault-analysis
      run the procedure triggered (verdicts inherited vs. proved, faults
      carried vs. extracted, incremental cluster updates, ...).
    """

    candidates_evaluated: int = 0
    candidates_speculated: int = 0
    candidates_wasted: int = 0
    candidate_cache_hits: int = 0
    candidate_cache_misses: int = 0
    backtrack_attempts: int = 0
    engine: EngineStats = field(default_factory=EngineStats)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (used by the perf harness)."""
        return {
            "candidates_evaluated": self.candidates_evaluated,
            "candidates_speculated": self.candidates_speculated,
            "candidates_wasted": self.candidates_wasted,
            "candidate_cache_hits": self.candidate_cache_hits,
            "candidate_cache_misses": self.candidate_cache_misses,
            "backtrack_attempts": self.backtrack_attempts,
            "engine": self.engine.as_dict(),
        }

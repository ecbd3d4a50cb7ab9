"""Supervised execution: shard deadlines, hung-worker detection, breaker.

The process pools (:mod:`repro.faults.psim`, :mod:`repro.atpg.patpg`)
historically handled only *crash*-class failures — a dead worker breaks
the pool and raises.  A worker that **hangs** (deadlock, pathological
SAT query, stalled shm attach) blocked ``future.result()`` forever.
This module supplies the three pieces that make hang-class failures
survivable, shared by both pools:

* **Deadline propagation** — :func:`deadline_scope` installs an
  absolute monotonic deadline for the current thread (the runner wraps
  every timed task body in one, and process-isolated workers pick it up
  from ``REPRO_SUPERVISE_DEADLINE``); :func:`remaining_time` is read by
  the dispatch layers to slice the task deadline into shard deadlines.
* **Supervision** — :func:`supervise_futures` polls a set of shard
  futures with bounded waits and watches per-shard heartbeats (workers
  store a monotonically increasing beat into the shared-memory block
  next to the payload); a shard whose future is unfinished *and* whose
  heartbeat has not advanced within the shard deadline is declared
  hung.  The caller kills and rebuilds the pool and re-runs the lost
  shards once before falling back to the serial path.
* **Circuit breaker** — a process-global health score per
  ``(phase, backend, circuit-topology)``: repeated process-layer
  failures open the breaker so a flaky environment stops paying the
  spawn-and-timeout tax on every call; after a cooldown a single
  half-open probe is allowed through and its outcome closes or reopens
  the breaker.

Environment knobs (all read at call time, like ``REPRO_SIM_*``):

* ``REPRO_SUPERVISE_SHARD_TIMEOUT`` — per-shard deadline in seconds
  (unset or <= 0 disables supervision; the pools then block exactly as
  before).  ``--shard-timeout`` on the runner CLI sets this.
* ``REPRO_SUPERVISE_POLL_MS`` — supervisor wake-up interval (default
  50 ms).
* ``REPRO_SUPERVISE_BREAKER_THRESHOLD`` — consecutive process-layer
  failures that open the breaker (default 3; 0 disables the breaker).
* ``REPRO_SUPERVISE_BREAKER_COOLDOWN`` — seconds an open breaker
  rejects calls before allowing a half-open probe (default 30).
* ``REPRO_SUPERVISE_DEADLINE`` — absolute per-task budget in seconds,
  set by the runner for process-isolated tasks; consumed once at
  interpreter startup of the task worker.

This module sits in the ``utils`` layer on purpose (like
:mod:`repro.utils.observability`): both pools and the runner import it,
so it must not import any of them.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

# Warning codes surfaced through EngineStats.warnings / warn_coded.
CODE_WORKER_HUNG = "MC-WORKER-HUNG"
CODE_SHARD_RETRY = "MC-SHARD-RETRY"
CODE_BREAKER_OPEN = "MC-BREAKER-OPEN"


class WorkerHungError(RuntimeError):
    """A worker stalled past its shard deadline and was reaped.

    Raised by the pools only after the one-shot shard retry also hung;
    ``fault_simulate`` / ``run_atpg`` turn it into a coded
    ``MC-WORKER-HUNG`` warning plus the serial fallback.  The
    counters carried here let the fallback path surface the supervision
    story even though the failed attempt's staged stats are discarded.
    """

    code = CODE_WORKER_HUNG

    def __init__(self, message: str, hung_workers: int = 1,
                 shard_retries: int = 0):
        super().__init__(message)
        self.hung_workers = hung_workers
        self.shard_retries = shard_retries


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def _env_float(env: Mapping[str, str], key: str,
               default: Optional[float]) -> Optional[float]:
    raw = env.get(key, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{key}: expected a number, got {raw!r}") from exc


@dataclass(frozen=True)
class SuperviseConfig:
    """Resolved supervision policy for one dispatch call.

    ``shard_timeout`` of ``None`` means unsupervised (the historical
    blocking wait) *unless* a deadline scope is active, in which case
    the remaining task budget becomes the shard deadline — the runner's
    ``TaskSpec.timeout`` thereby bounds every shard instead of only the
    thread-abandon/kill backstop.
    """

    shard_timeout: Optional[float] = None
    poll_s: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0

    def effective_timeout(self) -> Optional[float]:
        """Per-shard deadline after slicing in the task deadline."""
        timeout = self.shard_timeout
        rem = remaining_time()
        if rem is not None:
            rem = max(rem, 0.05)  # a spent budget still gets one poll
            timeout = rem if timeout is None else min(timeout, rem)
        return timeout


def resolve_supervision(
    shard_timeout: Optional[float] = None,
    environ: Optional[Mapping[str, str]] = None,
) -> SuperviseConfig:
    """Supervision config from the environment (read at call time).

    An explicit *shard_timeout* wins over ``REPRO_SUPERVISE_SHARD_TIMEOUT``;
    values <= 0 disable supervision.
    """
    env = os.environ if environ is None else environ
    if shard_timeout is None:
        shard_timeout = _env_float(env, "REPRO_SUPERVISE_SHARD_TIMEOUT", None)
    if shard_timeout is not None and shard_timeout <= 0:
        shard_timeout = None
    poll_ms = _env_float(env, "REPRO_SUPERVISE_POLL_MS", 50.0)
    threshold = int(
        _env_float(env, "REPRO_SUPERVISE_BREAKER_THRESHOLD", 3.0)
    )
    cooldown = _env_float(env, "REPRO_SUPERVISE_BREAKER_COOLDOWN", 30.0)
    return SuperviseConfig(
        shard_timeout=shard_timeout,
        poll_s=max(poll_ms, 1.0) / 1000.0,
        breaker_threshold=max(threshold, 0),
        breaker_cooldown=max(cooldown, 0.0),
    )


# ----------------------------------------------------------------------
# Deadline propagation (TaskSpec.timeout -> shard deadlines)
# ----------------------------------------------------------------------
_DEADLINE = threading.local()


class deadline_scope:
    """Install an absolute deadline *seconds* from now on this thread.

    Nestable; the innermost scope wins (an inner scope may only shorten
    the budget — a task cannot grant itself more time than its runner
    allowed).  ``None`` seconds is a no-op scope, so callers can wrap
    unconditionally.
    """

    def __init__(self, seconds: Optional[float]):
        self._until = (
            None if seconds is None else time.monotonic() + seconds
        )
        self._prev: Optional[float] = None

    def __enter__(self) -> "deadline_scope":
        self._prev = getattr(_DEADLINE, "until", None)
        if self._until is not None:
            until = self._until
            if self._prev is not None:
                until = min(until, self._prev)
            _DEADLINE.until = until
        return self

    def __exit__(self, *exc_info) -> None:
        _DEADLINE.until = self._prev


def remaining_time() -> Optional[float]:
    """Seconds left in the innermost active deadline scope (None if none).

    May be <= 0 when the budget is already spent; callers clamp.
    """
    until = getattr(_DEADLINE, "until", None)
    if until is None:
        return None
    return until - time.monotonic()


def install_deadline_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[deadline_scope]:
    """Enter a deadline scope from ``REPRO_SUPERVISE_DEADLINE`` (worker side).

    The runner sets the variable for process-isolated tasks so the
    fresh interpreter inherits the task budget.  Returns the entered
    scope (caller may hold it for the process lifetime) or None.
    """
    env = os.environ if environ is None else environ
    seconds = _env_float(env, "REPRO_SUPERVISE_DEADLINE", None)
    if seconds is None or seconds <= 0:
        return None
    scope = deadline_scope(seconds)
    scope.__enter__()
    return scope


# ----------------------------------------------------------------------
# Supervisor loop
# ----------------------------------------------------------------------
def supervise_futures(
    futures: Mapping[int, Future],
    heartbeats: Callable[[], Mapping[int, int]],
    *,
    shard_timeout: Optional[float],
    poll_s: float = 0.05,
    stats=None,
) -> Tuple[List[int], List[int]]:
    """Wait on shard *futures*, detecting stalls via *heartbeats*.

    *futures* maps shard id to its future; *heartbeats* returns the
    current beat value per shard id (workers bump their beat as they
    make progress — any change counts as liveness).  A shard whose
    future is unfinished and whose beat has not changed for
    *shard_timeout* seconds is declared hung, and the function returns
    immediately so the caller can reap the pool.

    Returns ``(done_ids, hung_ids)``: ``done_ids`` are shards whose
    future completed (result *or* exception — the caller's ``result()``
    call surfaces either); ``hung_ids`` is empty on full completion.
    With *shard_timeout* ``None`` this degrades to a plain blocking
    wait — exactly the pre-supervision behaviour.

    *stats* (an ``EngineStats``-like object, optional) gets
    ``supervise_wakeups`` bumped per bounded wait, making supervisor
    activity observable.
    """
    ids = list(futures)
    if shard_timeout is None:
        wait(list(futures.values()))
        return ids, []
    now = time.monotonic()
    beats = dict(heartbeats())
    last_change: Dict[int, float] = {i: now for i in ids}
    done: List[int] = []
    pending = set(ids)
    while pending:
        finished, _ = wait(
            [futures[i] for i in pending],
            timeout=poll_s,
            return_when=FIRST_COMPLETED,
        )
        if stats is not None:
            stats.supervise_wakeups += 1
        if finished:
            for i in list(pending):
                if futures[i].done():
                    pending.discard(i)
                    done.append(i)
            continue
        now = time.monotonic()
        fresh = heartbeats()
        hung: List[int] = []
        for i in sorted(pending):
            beat = fresh.get(i, 0)
            if beat != beats.get(i):
                beats[i] = beat
                last_change[i] = now
            elif now - last_change[i] > shard_timeout:
                hung.append(i)
        if hung:
            # Settle an instant race: a future may have completed
            # between the bounded wait and the staleness check.
            for i in list(pending):
                if futures[i].done():
                    pending.discard(i)
                    done.append(i)
            hung = [i for i in hung if i in pending]
            if hung:
                return done, hung
    return done, []


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Consecutive-failure breaker with timed half-open probes.

    States: ``closed`` (calls pass; failures count), ``open`` (calls
    rejected until the cooldown elapses), ``half-open`` (exactly one
    probe call passes; its success closes the breaker, its failure
    reopens it for another cooldown).  Transitions never change any
    verdict — the breaker only decides whether the *process* execution
    path is attempted; rejected calls take the same bit-identical
    serial fallback as any other ``ProcessExecUnavailable``.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 30.0):
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.opened_at: Optional[float] = None
        self._probing = False
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_unlocked(time.monotonic())

    def _state_unlocked(self, now: float) -> str:
        if self._probing:
            return "half-open"
        if self.opened_at is None:
            return "closed"
        if now - self.opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def allow(self, now: Optional[float] = None) -> bool:
        """Whether a call may attempt the process path right now.

        In half-open state only the first caller gets the probe; the
        rest are rejected until the probe resolves via
        :meth:`record_success` / :meth:`record_failure`.
        """
        if now is None:
            now = time.monotonic()
        with self._lock:
            state = self._state_unlocked(now)
            if state == "closed":
                return True
            if state == "open":
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self.failures = 0
            self.opened_at = None
            self._probing = False

    def record_failure(self, now: Optional[float] = None) -> None:
        if now is None:
            now = time.monotonic()
        with self._lock:
            self.failures += 1
            if self._probing:
                # Failed half-open probe: reopen for another cooldown.
                self._probing = False
                self.opened_at = now
            elif self.failures >= self.threshold > 0:
                self.opened_at = now

    def cancel_probe(self) -> None:
        """Release a claimed half-open probe without judging it.

        Used when the probe call failed for a reason that says nothing
        about backend health (e.g. the environment turned out to be
        unavailable): the breaker keeps its state and the next caller
        gets the probe instead — leaving ``_probing`` set would wedge
        the breaker in half-open forever.
        """
        with self._lock:
            self._probing = False

    def seconds_until_probe(self, now: Optional[float] = None) -> float:
        if now is None:
            now = time.monotonic()
        with self._lock:
            if self.opened_at is None:
                return 0.0
            return max(0.0, self.cooldown - (now - self.opened_at))


_BREAKERS: Dict[object, CircuitBreaker] = {}
_BREAKERS_LOCK = threading.Lock()


def breaker_for(key: object, config: SuperviseConfig) -> Optional[CircuitBreaker]:
    """The process-global breaker for *key* (None when disabled).

    Keys are ``(phase, backend, circuit-topology-token)`` tuples so one
    flaky circuit/backend pair cannot open the breaker for healthy
    ones.  The registry is process-global on purpose: the health score
    must survive across calls, pools, and circuits sharing a topology.
    """
    if config.breaker_threshold <= 0:
        return None
    with _BREAKERS_LOCK:
        breaker = _BREAKERS.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=config.breaker_threshold,
                cooldown=config.breaker_cooldown,
            )
            _BREAKERS[key] = breaker
        else:
            # Knobs are read at call time; keep a live breaker in sync.
            breaker.threshold = config.breaker_threshold
            breaker.cooldown = config.breaker_cooldown
        return breaker


def reset_breakers() -> None:
    """Drop every breaker (test hook)."""
    with _BREAKERS_LOCK:
        _BREAKERS.clear()


def breaker_states() -> Dict[str, str]:
    """Snapshot of every live breaker's state (observability hook)."""
    with _BREAKERS_LOCK:
        return {str(key): b.state for key, b in _BREAKERS.items()}


# ----------------------------------------------------------------------
# Core ledger (campaign scheduler <-> inner pool arbitration)
# ----------------------------------------------------------------------
class Lease:
    """One in-flight task's claim on the :class:`CoreLedger`.

    The scheduler acquires a lease per dispatched task and activates it
    on the thread running the task body; every inner pool that asks for
    workers while the lease is active is granted at most the ledger's
    current fair share.  Grants are re-evaluated on every call, so a
    task that outlives its peers widens to the full machine on its next
    batch without any callback plumbing.
    """

    def __init__(self, ledger: "CoreLedger", task_id: str):
        self.ledger = ledger
        self.task_id = task_id
        self.grants = 0
        self.peak_workers = 0
        self.released = False

    def grant(self, requested: Optional[int]) -> int:
        """Workers allowed right now for a *requested* count.

        ``None`` means "as many as I'm allowed" (the lease share); an
        explicit request is capped at the share but never below 1.
        """
        share = self.ledger.share()
        allowed = share if requested is None else max(1, min(requested, share))
        self.grants += 1
        self.peak_workers = max(self.peak_workers, allowed)
        self.ledger.record_grant(allowed)
        return allowed

    def release(self) -> None:
        if not self.released:
            self.released = True
            self.ledger._release(self)

    def activate(self) -> "activate_lease":
        return activate_lease(self)


class CoreLedger:
    """Process-global arbiter dividing cores among in-flight tasks.

    ``share()`` is the fair slice for one active lease:
    ``max(1, total // active)`` — a lone task gets everything, four
    peers get a quarter each, and shares renegotiate implicitly because
    pools ask again on every dispatch.  Oversubscription is bounded at
    ``total + active`` in the worst instant (integer division rounds
    down, lone stragglers round up to 1), never quadratic.
    """

    def __init__(self, total: Optional[int] = None):
        self._lock = threading.Lock()
        self._active: Dict[int, Lease] = {}
        self.total_grants = 0
        self.peak_active = 0
        self.configure(total)

    def configure(self, total: Optional[int] = None) -> None:
        """Set the core budget; ``None`` reads ``REPRO_RUN_CORES``/CPU count."""
        if total is None:
            raw = os.environ.get("REPRO_RUN_CORES", "").strip()
            if raw:
                total = int(raw)
            else:
                total = os.cpu_count() or 1
        with self._lock:
            self.total = max(1, int(total))

    def acquire(self, task_id: str) -> Lease:
        lease = Lease(self, task_id)
        with self._lock:
            self._active[id(lease)] = lease
            self.peak_active = max(self.peak_active, len(self._active))
        return lease

    def _release(self, lease: Lease) -> None:
        with self._lock:
            self._active.pop(id(lease), None)

    def share(self) -> int:
        """Current fair share per active lease (>= 1)."""
        with self._lock:
            active = max(1, len(self._active))
            return max(1, self.total // active)

    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def record_grant(self, allowed: int) -> None:
        with self._lock:
            self.total_grants += 1


_CORE_LEDGER: Optional[CoreLedger] = None
_CORE_LEDGER_LOCK = threading.Lock()
_LEASE = threading.local()
_STATIC_SHARE: Optional[int] = None


def core_ledger() -> CoreLedger:
    """The process-global ledger (created lazily)."""
    global _CORE_LEDGER
    with _CORE_LEDGER_LOCK:
        if _CORE_LEDGER is None:
            _CORE_LEDGER = CoreLedger()
        return _CORE_LEDGER


def reset_core_ledger() -> None:
    """Drop the ledger, any active lease, and the static share (test hook)."""
    global _CORE_LEDGER, _STATIC_SHARE
    with _CORE_LEDGER_LOCK:
        _CORE_LEDGER = None
    _STATIC_SHARE = None
    _LEASE.current = None


def current_lease() -> Optional[Lease]:
    """The lease active on this thread, if any."""
    return getattr(_LEASE, "current", None)


class activate_lease:
    """Install *lease* as this thread's active lease (nestable, None ok).

    The scheduler enters this on the thread executing a task body; the
    runner re-enters it inside the timed-body worker thread so the
    lease survives the thread hop.
    """

    def __init__(self, lease: Optional[Lease]):
        self._lease = lease
        self._prev: Optional[Lease] = None

    def __enter__(self) -> "activate_lease":
        self._prev = getattr(_LEASE, "current", None)
        if self._lease is not None:
            _LEASE.current = self._lease
        return self

    def __exit__(self, *exc_info) -> None:
        _LEASE.current = self._prev


def install_core_share_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[int]:
    """Adopt ``REPRO_RUN_CORE_SHARE`` as this process's static share.

    Process-isolated task workers cannot see the parent's ledger, so
    the runner exports the share that was current at dispatch time and
    the fresh interpreter caps every pool at it.  Returns the installed
    share (None when unset).
    """
    global _STATIC_SHARE
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_RUN_CORE_SHARE", "").strip()
    if not raw:
        return None
    share = max(1, int(raw))
    _STATIC_SHARE = share
    return share


def negotiate_workers(requested: Optional[int]) -> Optional[int]:
    """Cap a worker request at the caller's core entitlement.

    Resolution order: an active :class:`Lease` (scheduler-managed
    thread) wins, then the static share installed from
    ``REPRO_RUN_CORE_SHARE`` (process-isolated worker); with neither,
    the request passes through untouched — serial runs and direct API
    callers see exactly the historical behaviour.
    """
    lease = current_lease()
    if lease is not None:
        return lease.grant(requested)
    if _STATIC_SHARE is not None:
        if requested is None:
            return _STATIC_SHARE
        return max(1, min(requested, _STATIC_SHARE))
    return requested


def active_core_share() -> Optional[int]:
    """The share a renegotiating pool should cap itself at right now.

    ``None`` means unmanaged (no lease, no static share) — pools keep
    their configured worker count.
    """
    lease = current_lease()
    if lease is not None:
        return lease.ledger.share()
    return _STATIC_SHARE

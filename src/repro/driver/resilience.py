"""Self-protection primitives for the compile service — the proactive
half beside retry, digest verification and quarantine
(docs/robustness.md):

* :class:`Deadline` — a request-scoped, monotonic-clock budget, made
  from the ``timeout`` option at entry and held as ambient state next
  to the ``compile_id``; every expensive stage checks it *before*
  starting, so a spent request fails fast with
  :class:`~repro.core.errors.DeadlineExceededError` naming that stage.
  It crosses the process boundary as remaining seconds.
* :class:`CircuitBreaker` — over the batch compile fork pool:
  ``threshold`` consecutive infrastructure failures open it, and while
  open every offload compiles inline in the parent instead.

Knobs (:mod:`repro.settings`): ``timeout``, ``breaker_threshold``,
``breaker_cooldown``.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from contextlib import contextmanager
from typing import Optional

from repro import settings
from repro.core.errors import DeadlineExceededError
from repro.obs.events import emit as emit_event


def active_fault_plan():
    """The installed :class:`repro.faults.FaultPlan`, or None, read
    without importing :mod:`repro.faults`: no plan is active before
    ``repro.faults.plan`` is loaded and ``install`` has run."""
    plan = sys.modules.get("repro.faults.plan")
    return plan and plan.get_plan()


# -- deadlines ---------------------------------------------------------------

class Deadline:
    """A monotonic-clock budget for one request.

    Created once at the request boundary and *charged as it runs*: the
    expiry instant is fixed at construction, so every stage the request
    executes eats into what the next stage may spend.  ``check(stage)``
    is the guard the pipeline calls before each expensive stage.
    """

    __slots__ = ("budget", "_expires_at")

    def __init__(self, budget: float):
        self.budget = float(budget)
        self._expires_at = time.monotonic() + self.budget

    @classmethod
    def from_timeout(cls, timeout) -> Optional["Deadline"]:
        """The request budget the ``timeout`` option implies: explicit
        option first, then the ``timeout`` knob, else no deadline."""
        resolved = settings.resolve("timeout", timeout)
        return None if resolved is None else cls(resolved)

    def remaining(self) -> float:
        """Seconds of budget left (never negative)."""
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def check(self, stage: str) -> None:
        """Fail fast if the budget is gone: journal the exhaustion and
        raise :class:`DeadlineExceededError` naming ``stage`` (which
        therefore never begins)."""
        if not self.expired():
            return
        emit_event("resilience.deadline.exceeded", stage=stage,
                   budget_seconds=self.budget)
        raise DeadlineExceededError(
            f"compile budget of {self.budget:g}s exhausted before stage "
            f"{stage!r}", stage=stage, budget=self.budget)


_DEADLINE: "contextvars.ContextVar[Optional[Deadline]]" = \
    contextvars.ContextVar("tiramisu_deadline", default=None)


def current_deadline() -> Optional[Deadline]:
    """The ambient request deadline, or None (no budget)."""
    return _DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Optional[Deadline]):
    """Install ``deadline`` as the ambient budget for the block — the
    request-scoped twin of :func:`repro.obs.events.compile_context`,
    and installed right next to it by the pipeline and batch front
    end."""
    token = _DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _DEADLINE.reset(token)


# -- the circuit breaker -----------------------------------------------------

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

_STATE_GAUGE = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}


class CircuitBreaker:
    """closed -> open after ``threshold`` consecutive failures ->
    half-open probe after ``cooldown`` seconds -> closed on success
    (re-open on failure).  Thread-safe; transitions are journaled as
    ``resilience.breaker.{open,half_open,close}`` events, each also a
    counter (state rides the ``resilience.breaker.state`` gauge: 0
    closed, 1 half-open, 2 open)."""

    def __init__(self, name: str = "pool",
                 threshold: Optional[int] = None,
                 cooldown: Optional[float] = None):
        self.name = name
        self.threshold = settings.resolve("breaker_threshold", threshold)
        self.cooldown = settings.resolve("breaker_cooldown", cooldown)
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        # Lifetime transition counts, for tests and stats().
        self.opens = 0
        self.closes = 0
        self.half_opens = 0
        self.short_circuits = 0

    # -- state ----------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, state: str, **fields) -> None:
        """Caller holds the lock; journaling happens outside it."""
        self._state = state
        from repro.obs.metrics import metrics
        metrics.gauge("resilience.breaker.state").set(_STATE_GAUGE[state])

    def allow(self) -> bool:
        """May the caller touch the pool right now?  ``closed`` and
        ``half-open`` answer yes; ``open`` answers no until the
        cooldown elapses, at which point the breaker half-opens and the
        call becomes the probe."""
        transition = None
        with self._lock:
            if self._state == STATE_OPEN:
                if time.monotonic() - self._opened_at < self.cooldown:
                    self.short_circuits += 1
                    allowed = False
                else:
                    self.half_opens += 1
                    self._transition(STATE_HALF_OPEN)
                    transition = "half_open"
                    allowed = True
            else:
                allowed = True
        if transition is not None:
            emit_event("resilience.breaker.half_open", breaker=self.name)
        elif not allowed:
            emit_event("resilience.breaker.short_circuit", breaker=self.name)
        return allowed

    def record_success(self) -> None:
        """A pool interaction worked: reset the failure streak, and
        close a half-open breaker."""
        closed = False
        with self._lock:
            self._consecutive_failures = 0
            if self._state != STATE_CLOSED:
                self.closes += 1
                self._transition(STATE_CLOSED)
                closed = True
        if closed:
            emit_event("resilience.breaker.close", breaker=self.name)

    def record_failure(self) -> None:
        """A pool interaction failed (infrastructure, not application):
        extend the streak; trip open at ``threshold`` consecutive
        failures, or immediately when the half-open probe fails."""
        opened = False
        with self._lock:
            self._consecutive_failures += 1
            should_open = (self._state == STATE_HALF_OPEN
                           or (self._state == STATE_CLOSED
                               and self._consecutive_failures
                               >= self.threshold))
            if should_open:
                self.opens += 1
                self._opened_at = time.monotonic()
                self._transition(STATE_OPEN)
                opened = True
        if opened:
            emit_event("resilience.breaker.open", breaker=self.name,
                       consecutive_failures=self._consecutive_failures,
                       cooldown_seconds=self.cooldown)

    def trip(self) -> None:
        """Force the breaker open now (tests, manual load shedding)."""
        with self._lock:
            self.opens += 1
            self._opened_at = time.monotonic()
            self._transition(STATE_OPEN)
        emit_event("resilience.breaker.open", breaker=self.name,
                   forced=True, cooldown_seconds=self.cooldown)

    def reset(self) -> None:
        """Back to a pristine closed breaker (state and counters)."""
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = 0.0
            self.opens = self.closes = self.half_opens = 0
            self.short_circuits = 0
            self._transition(STATE_CLOSED)

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "threshold": self.threshold,
                "cooldown": self.cooldown,
                "opens": self.opens,
                "closes": self.closes,
                "half_opens": self.half_opens,
                "short_circuits": self.short_circuits,
            }


# -- the process-wide pool breaker -------------------------------------------
#
# One breaker guards the fork pool that the batch compile front end
# (repro.driver.batch) dispatches onto: a pool that keeps dying stops
# being hammered.

_pool_breaker: Optional[CircuitBreaker] = None
_pool_breaker_lock = threading.Lock()


def pool_breaker() -> CircuitBreaker:
    """The process-global breaker over the batch fork pool (built
    lazily from the ``breaker_*`` knobs)."""
    global _pool_breaker
    if _pool_breaker is None:
        with _pool_breaker_lock:
            if _pool_breaker is None:
                _pool_breaker = CircuitBreaker("pool")
    return _pool_breaker


def reset_pool_breaker() -> None:
    """Drop the global breaker so the next use rebuilds it from the
    settings — tests repoint thresholds without leaking state."""
    global _pool_breaker
    with _pool_breaker_lock:
        _pool_breaker = None

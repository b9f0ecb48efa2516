"""Circuit breaker: trip a failing codec to a raw-passthrough fallback.

The bicriteria view of compression (Farruggia et al.) only holds when a
failed or slow compressor can be traded for the raw path; this is the
mechanism that performs the trade. Consumers (cache server, far-memory
pool) call :meth:`allow` before compressing and :meth:`record_success` /
:meth:`record_failure` after; while the breaker is open they store raw.

State machine::

    CLOSED --[failure_threshold consecutive failures]--> OPEN
    OPEN   --[cooldown_seconds elapsed on the clock]---> HALF_OPEN
    HALF_OPEN --[one success]--------------------------> CLOSED
    HALF_OPEN --[any failure]--------------------------> OPEN (cooldown restarts)

Time comes from a :class:`~repro.resilience.clock.SimClock` so cooldown
behaviour is deterministic and testable.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.instrument import record_breaker_transition
from repro.obs.state import OBS_STATE
from repro.resilience.clock import SimClock

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Trip-out protection for a repeatedly failing dependency."""

    def __init__(
        self,
        name: str = "breaker",
        failure_threshold: int = 5,
        cooldown_seconds: float = 1.0,
        clock: Optional[SimClock] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.clock = clock if clock is not None else SimClock()
        self.state = CLOSED
        self.trips = 0
        self.rejected = 0
        self._consecutive_failures = 0
        self._opened_at = 0.0

    # -- the consumer-facing triple ---------------------------------------

    def allow(self) -> bool:
        """May the protected operation be attempted right now?"""
        if self.state == OPEN:
            if self.clock.now() - self._opened_at >= self.cooldown_seconds:
                self._transition(HALF_OPEN)
                return True
            self.rejected += 1
            return False
        return True

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self._transition(CLOSED)
        else:
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if self.state == CLOSED and (
            self._consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    # -- internals ---------------------------------------------------------

    def _trip(self) -> None:
        self.trips += 1
        self._opened_at = self.clock.now()
        self._transition(OPEN)

    def _transition(self, to_state: str) -> None:
        self.state = to_state
        self._consecutive_failures = 0
        if OBS_STATE.enabled:
            record_breaker_transition(self.name, to_state)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state}, "
            f"trips={self.trips})"
        )

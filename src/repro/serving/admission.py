"""Admission control: token bucket, adaptive concurrency, explicit verdicts.

Load shedding at the front door is what keeps an overloaded compression
service from melting down: the paper's cost framing (cycles are dollars)
means every cycle spent on a request that will miss its deadline is a
cycle stolen from one that would not. The controller returns an explicit
decision (:data:`ADMIT`, :data:`THROTTLE` or :data:`SHED`) for every
offered request so callers — and the scorecard — can distinguish
*throttled* (rate limit), *shed* (queue pressure), and *admitted* traffic.

Two mechanisms compose:

- :class:`TokenBucket` — a classic rate limiter over the simulated clock:
  ``rate`` tokens/second refill up to ``burst``; a request costs one
  token. Deterministic because refill is computed from clock readings,
  never from wall time.
- :class:`AdaptiveConcurrencyLimit` — an AIMD limit on in-service
  requests, the Netflix-style gradient limiter reduced to its
  deterministic core: completions under the latency target grow the limit
  additively (+1/limit per completion), completions over it shrink the
  limit multiplicatively (x 0.8, never below one). The gateway dispatches
  at most ``floor(limit)`` requests concurrently, so a latency regression
  squeezes concurrency before queues grow unboundedly.
"""

from __future__ import annotations

from typing import Optional

from repro.resilience.clock import SimClock

#: admission decisions
ADMIT = "admit"
THROTTLE = "throttle"
SHED = "shed"


class TokenBucket:
    """Deterministic token bucket over a :class:`SimClock`."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Optional[SimClock] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = rate
        self.burst = float(burst)
        self.clock = clock if clock is not None else SimClock()
        self._tokens = float(burst)
        self._refilled_at = self.clock.now()

    def _refill(self) -> None:
        now = self.clock.now()
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._refilled_at = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_take(self) -> bool:
        """Spend one token if available; never blocks."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


#: the AIMD limit's floor, and the factor a slow completion multiplies it by
_MINIMUM_LIMIT = 1.0
_BACKOFF = 0.8


class AdaptiveConcurrencyLimit:
    """AIMD concurrency limit driven by observed latency vs. a target."""

    def __init__(
        self,
        target_latency: float,
        initial: float = 4.0,
        maximum: float = 64.0,
    ) -> None:
        if target_latency <= 0:
            raise ValueError("target_latency must be positive")
        if not _MINIMUM_LIMIT <= initial <= maximum:
            raise ValueError("need 1 <= initial <= maximum")
        self.target_latency = target_latency
        self.maximum = maximum
        self._limit = float(initial)
        self.increases = 0
        self.decreases = 0

    @property
    def limit(self) -> int:
        """Concurrent requests the gateway may have in service."""
        return int(self._limit)

    def on_complete(self, latency: float) -> None:
        """Feed one completed request's end-to-end latency."""
        if latency <= self.target_latency:
            self._limit = min(self.maximum, self._limit + 1.0 / self._limit)
            self.increases += 1
        else:
            self._limit = max(_MINIMUM_LIMIT, self._limit * _BACKOFF)
            self.decreases += 1


class AdmissionController:
    """Front-door policy: rate limit first, then queue-pressure shed."""

    def __init__(
        self,
        bucket: Optional[TokenBucket] = None,
        limiter: Optional[AdaptiveConcurrencyLimit] = None,
    ) -> None:
        self.bucket = bucket
        self.limiter = limiter

    def admit(self, queue_depth: int, queue_capacity: int) -> str:
        """Rule on one offered request given current queue pressure:
        :data:`THROTTLE` on an empty token bucket, else :data:`SHED` when
        the queue is at capacity, else :data:`ADMIT`."""
        if self.bucket is not None and not self.bucket.try_take():
            return THROTTLE
        if 0 < queue_capacity <= queue_depth:
            return SHED
        return ADMIT

    def concurrency(self, workers: int) -> int:
        """Effective dispatch width: worker count clipped by the limiter."""
        if self.limiter is None:
            return workers
        return max(1, min(workers, self.limiter.limit))

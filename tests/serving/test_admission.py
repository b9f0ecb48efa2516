"""Admission control: token bucket, AIMD limit, verdicts."""

import pytest

from repro.resilience.clock import SimClock
from repro.serving.admission import (
    ADMIT,
    SHED,
    THROTTLE,
    AdaptiveConcurrencyLimit,
    AdmissionController,
    TokenBucket,
)


class TestTokenBucket:
    def test_burst_then_exhaustion(self):
        bucket = TokenBucket(rate=10.0, burst=3, clock=SimClock())
        assert bucket.try_take()
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_follows_the_clock(self):
        clock = SimClock()
        bucket = TokenBucket(rate=10.0, burst=5, clock=clock)
        for __ in range(5):
            assert bucket.try_take()
        assert not bucket.try_take()
        clock.advance(0.1)  # 1 token at 10/s
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = SimClock()
        bucket = TokenBucket(rate=100.0, burst=4, clock=clock)
        clock.advance(1000.0)
        assert bucket.tokens == 4.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestAdaptiveConcurrencyLimit:
    def test_additive_increase_under_target(self):
        limiter = AdaptiveConcurrencyLimit(
            target_latency=0.1, initial=4.0, maximum=8.0
        )
        for __ in range(40):
            limiter.on_complete(0.01)
        assert limiter.limit == 8
        assert limiter.increases == 40 and limiter.decreases == 0

    def test_multiplicative_decrease_over_target(self):
        limiter = AdaptiveConcurrencyLimit(target_latency=0.1, initial=8.0)
        limiter.on_complete(1.0)  # x 0.8: 6.4
        assert limiter.limit == 6
        limiter.on_complete(1.0)  # 5.12
        assert limiter.limit == 5
        assert limiter.increases == 0 and limiter.decreases == 2

    def test_floor_is_one(self):
        limiter = AdaptiveConcurrencyLimit(target_latency=0.1, initial=4.0)
        for __ in range(10):  # 4 x 0.8 ** 10 would be 0.43
            limiter.on_complete(9.9)
        assert limiter.limit == 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimit(target_latency=0.0)
        with pytest.raises(ValueError):
            AdaptiveConcurrencyLimit(target_latency=0.1, initial=0.5)


class TestAdmissionController:
    def test_admit_by_default(self):
        decision = AdmissionController().admit(queue_depth=0, queue_capacity=10)
        assert decision == ADMIT

    def test_throttle_before_shed(self):
        clock = SimClock()
        controller = AdmissionController(
            bucket=TokenBucket(rate=1.0, burst=1, clock=clock)
        )
        assert controller.admit(0, 10) == ADMIT
        # bucket empty AND queue full: the rate limit rules first
        assert controller.admit(10, 10) == THROTTLE
        # an empty queue does not lift the rate limit
        assert controller.admit(0, 10) == THROTTLE

    def test_shed_at_queue_threshold(self):
        controller = AdmissionController()
        assert controller.admit(9, 10) == ADMIT
        assert controller.admit(10, 10) == SHED
        # the threshold is the capacity, whatever the capacity
        assert controller.admit(19, 20) == ADMIT
        assert controller.admit(20, 20) == SHED

    def test_concurrency_clipped_by_limiter(self):
        limiter = AdaptiveConcurrencyLimit(target_latency=0.1, initial=2.0)
        controller = AdmissionController(limiter=limiter)
        assert controller.concurrency(8) == 2
        limiter.on_complete(1.0)  # limit drops to 1.6, dispatching 1
        assert controller.concurrency(8) == 1
        assert AdmissionController().concurrency(8) == 8

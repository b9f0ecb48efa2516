"""CircuitBreaker state machine on the simulated clock."""

import pytest

from repro.resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, SimClock


def _tripped(threshold=3, cooldown=1.0):
    clock = SimClock()
    breaker = CircuitBreaker(
        "test",
        failure_threshold=threshold,
        cooldown_seconds=cooldown,
        clock=clock,
    )
    for __ in range(threshold):
        breaker.record_failure()
    return breaker, clock


class TestSimClock:
    def test_monotonic(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now() == pytest.approx(1.5)
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_sleep_alias(self):
        clock = SimClock(start=2.0)
        clock.sleep(0.5)
        assert clock.now() == pytest.approx(2.5)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_after_consecutive_failures(self):
        breaker, __ = _tripped(threshold=3)
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never 3 in a row

    def test_open_rejects_until_cooldown(self):
        breaker, clock = _tripped(cooldown=1.0)
        assert not breaker.allow()
        assert breaker.rejected == 1
        clock.advance(0.5)
        assert not breaker.allow()
        clock.advance(0.6)  # past the cooldown
        assert breaker.allow()
        assert breaker.state == HALF_OPEN

    def test_half_open_success_closes(self):
        breaker, clock = _tripped(cooldown=1.0)
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = _tripped(cooldown=1.0)
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert not breaker.allow()  # cooldown restarted at the new trip
        clock.advance(1.0)
        assert breaker.allow()

    def test_a_full_cycle_moves_state_at_each_call(self):
        breaker, clock = _tripped(cooldown=1.0)
        assert breaker.state == OPEN
        clock.advance(0.5)
        assert not breaker.allow()
        assert breaker.state == OPEN
        clock.advance(0.5)
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_seconds=-1)

"""SLO burn-rate math and the multi-window alert state machine."""

from __future__ import annotations

import pytest

from repro.obs.slo import (
    DEFAULT_RULES,
    OK,
    PAGE,
    WARN,
    AlertStateMachine,
    BoundSLO,
    BurnRule,
    EventRateSLO,
    SLOEvaluator,
    metric_total,
)
from repro.obs.timeseries import TimeSeriesRecorder


def _windows(bad_by_window, total_per_window=100):
    """Build closed windows with ``events_total`` counters per spec."""
    rec = TimeSeriesRecorder(width_seconds=1.0)
    windows = []
    for i, bad in enumerate(bad_by_window):
        reg = rec.registry()
        reg.counter("events_total").inc(bad, result="bad")
        reg.counter("events_total").inc(total_per_window - bad, result="good")
        windows.extend(rec.advance(float(i + 1)))
    return windows


def _event_slo(budget=0.01, name="errors"):
    return EventRateSLO(
        name,
        bad=lambda r: metric_total(r, "events_total", result="bad"),
        total=lambda r: metric_total(r, "events_total"),
        budget=budget,
    )


class TestMetricTotal:
    def test_label_filtered_sum(self):
        rec = TimeSeriesRecorder(width_seconds=1.0)
        reg = rec.registry()
        reg.counter("ops").inc(3, kind="a", zone="x")
        reg.counter("ops").inc(5, kind="b", zone="x")
        reg.counter("ops").inc(7, kind="a", zone="y")
        assert metric_total(reg, "ops") == 15
        assert metric_total(reg, "ops", kind="a") == 10
        assert metric_total(reg, "ops", kind="a", zone="y") == 7
        assert metric_total(reg, "ops", kind="c") == 0.0
        assert metric_total(reg, "absent") == 0.0


class TestBurnRates:
    def test_event_rate_burn(self):
        slo = _event_slo(budget=0.01)
        # 2% bad against a 1% budget burns at 2x
        assert slo.burn_rate(_windows([2])) == pytest.approx(2.0)
        assert slo.burn_rate(_windows([0])) == 0.0

    def test_event_rate_no_signal(self):
        slo = _event_slo()
        assert slo.burn_rate(_windows([0], total_per_window=0)) is None

    def test_event_rate_budget_validated(self):
        with pytest.raises(ValueError):
            _event_slo(budget=0.0)
        with pytest.raises(ValueError):
            _event_slo(budget=1.0)

    def test_bound_upper_and_lower(self):
        upper = BoundSLO("p99", value=lambda r: 0.5, bound=0.25, mode="upper")
        assert upper.burn_rate(_windows([0])) == pytest.approx(2.0)
        lower = BoundSLO("rate", value=lambda r: 50.0, bound=100.0, mode="lower")
        assert lower.burn_rate(_windows([0])) == pytest.approx(2.0)
        dead = BoundSLO("rate", value=lambda r: 0.0, bound=100.0, mode="lower")
        assert dead.burn_rate(_windows([0])) == float("inf")
        silent = BoundSLO("p99", value=lambda r: None, bound=0.25)
        assert silent.burn_rate(_windows([0])) is None

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            BoundSLO("x", value=lambda r: 1.0, bound=0.0)
        with pytest.raises(ValueError):
            BoundSLO("x", value=lambda r: 1.0, bound=1.0, mode="sideways")


class TestBurnRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurnRule("critical", 4, 2, 6.0)
        with pytest.raises(ValueError):
            BurnRule(PAGE, 2, 4, 6.0)  # short > long
        with pytest.raises(ValueError):
            BurnRule(PAGE, 4, 0, 6.0)
        with pytest.raises(ValueError):
            BurnRule(PAGE, 4, 2, 0.0)

    def test_default_rules_shape(self):
        severities = [r.severity for r in DEFAULT_RULES]
        assert PAGE in severities and WARN in severities


class TestAlertStateMachine:
    def test_immediate_escalation_and_hysteresis(self):
        m = AlertStateMachine("errors", clear_after=2)
        assert m.evaluate(1.0, PAGE, "burning") is not None
        assert m.state == PAGE
        # still burning: no edge, quiet counter stays reset
        assert m.evaluate(2.0, PAGE) is None
        # one quiet evaluation is not enough to step down
        assert m.evaluate(3.0, None) is None
        assert m.state == PAGE
        edge = m.evaluate(4.0, None)
        assert edge is not None and (edge.from_state, edge.to_state) == (
            PAGE,
            WARN,
        )
        # step-down is one severity at a time: PAGE -> WARN -> OK
        assert m.evaluate(5.0, None) is None
        assert m.evaluate(6.0, None).to_state == OK

    def test_quiet_streak_broken_by_refire(self):
        m = AlertStateMachine("errors", clear_after=2)
        m.evaluate(1.0, WARN)
        m.evaluate(2.0, None)
        m.evaluate(3.0, WARN)  # resets the quiet streak
        assert m.evaluate(4.0, None) is None
        assert m.state == WARN

    def test_seconds_accounting_covers_span(self):
        m = AlertStateMachine("errors", clear_after=1)
        m.evaluate(0.0, None)
        m.evaluate(2.0, PAGE)   # 0..2 in OK
        m.evaluate(5.0, None)   # 2..5 in PAGE, then step to WARN
        m.finish(6.0)           # 5..6 in WARN
        assert m.seconds_in[OK] == pytest.approx(2.0)
        assert m.seconds_in[PAGE] == pytest.approx(3.0)
        assert m.seconds_in[WARN] == pytest.approx(1.0)
        assert sum(m.seconds_in.values()) == pytest.approx(6.0)

    def test_clear_after_validated(self):
        with pytest.raises(ValueError):
            AlertStateMachine("x", clear_after=0)


class TestSLOEvaluator:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SLOEvaluator([_event_slo(name="a"), _event_slo(name="a")])

    def test_multiwindow_pages_only_on_sustained_burn(self):
        rules = (
            BurnRule(PAGE, long_windows=4, short_windows=2, threshold=6.0),
            BurnRule(WARN, long_windows=8, short_windows=2, threshold=1.5),
        )
        slo = _event_slo(budget=0.01)

        def run(bad_by_window):
            evaluator = SLOEvaluator([slo], rules=rules)
            for window in _windows(bad_by_window):
                evaluator.on_window(window)
            return evaluator, evaluator.finish(0.0)

        # one hot window (10x burn in the short view) diluted to 5x by
        # the 4-window long view: below the 6x page threshold -> no page
        __, spike = run([0, 0, 0, 20, 0, 0])
        assert all(t.to_state != PAGE for t in spike.transitions)
        # sustained 12% bad vs 1% budget: burns 12x in both views -> page
        evaluator, sustained = run([12, 12, 12, 12])
        assert any(t.to_state == PAGE for t in sustained.transitions)
        assert evaluator.states() == sustained.final_states == {"errors": PAGE}
        assert sustained.total_page_seconds() > 0
        assert sustained.worst_state() == PAGE

    def test_burns_reported_page_rule_first(self):
        evaluator = SLOEvaluator([_event_slo()])
        for window in _windows([2, 2]):
            evaluator.on_window(window)
        burns = evaluator.last_burns["errors"]
        keys = list(burns)
        assert keys[0].startswith(PAGE)
        assert all(":" in k and "w/" in k for k in keys)
        # the headline is the page rule's long-window burn: 2% bad of a
        # 1% budget
        assert evaluator.burn("errors") == burns[keys[0]] == pytest.approx(2.0)
        assert evaluator.burn("absent") is None

    def test_deterministic_timeline(self):
        bad = [0, 8, 12, 12, 12, 0, 0, 0, 0]

        def timeline():
            evaluator = SLOEvaluator([_event_slo(budget=0.01)])
            for window in _windows(bad):
                evaluator.on_window(window)
            return [
                (t.at, t.slo, t.from_state, t.to_state, t.reason)
                for t in evaluator.finish(0.0).transitions
            ]

        first, second = timeline(), timeline()
        assert first == second
        assert first, "expected at least one transition"

    def test_empty_window_list_is_noop(self):
        # no window ever closed: nothing fired, and state time runs to the
        # idle end the caller names
        evaluator = SLOEvaluator([_event_slo()])
        summary = evaluator.finish(3.0)
        assert evaluator.windows == [] and summary.transitions == ()
        assert summary.final_states == {"errors": OK}
        assert summary.total_page_seconds() == summary.total_warn_seconds() == 0.0
        assert summary.worst_state() == OK
        assert summary.first_transition() is None

    def test_summary_accounts_state_time_to_the_last_window_end(self):
        evaluator = SLOEvaluator([_event_slo(budget=0.01)])
        for window in _windows([12, 12, 12, 0, 0, 0, 0]):
            evaluator.on_window(window)
        summary = evaluator.finish(99.0)  # ignored: windows closed
        page = summary.first_transition("errors", PAGE)
        assert page is summary.first_transition(to_state=PAGE) is not None
        cleared = summary.first_transition("errors", WARN)
        assert cleared.from_state == PAGE and cleared.at > page.at
        assert summary.page_seconds == {"errors": cleared.at - page.at}
        assert summary.total_page_seconds() == cleared.at - page.at
        # the page ended, but it is still the worst the run saw
        assert summary.final_states["errors"] != PAGE
        assert summary.worst_state() == PAGE
        first, last = evaluator.windows[0], evaluator.windows[-1]
        in_any = evaluator.machines["errors"].seconds_in
        assert sum(in_any.values()) == last.end - first.end

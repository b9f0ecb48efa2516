"""The serving SLO timeline: determinism, ordering, and drilldowns.

Acceptance-critical properties (ISSUE 6):

- two runs at the same seed render **byte-identical** alert timelines
  (table and JSONL forms);
- under overload the shed-rate burn alert fires **after** the
  degradation ladder has engaged — alerting observes the ladder's
  attempt to absorb the overload, it does not preempt it;
- the baseline scenario holds every SLO at OK end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.rollup import merge_shard_windows
from repro.obs.slo import OK, PAGE, SLOEvaluator, worst_of
from repro.obs.timeseries import WindowSnapshot
from repro.serving import run_simulation
from repro.serving.slos import (
    ServingSLOConfig,
    WindowRecorder,
    build_window_row,
    format_timeline,
    record_window_completion,
    record_window_served,
    record_window_verdict,
    serving_slos,
    timeline_jsonl,
    window_tenants,
)

_OVERLOAD = dict(scenario="overload", seed=42, scale=0.5)


@pytest.fixture(scope="module")
def overload_report():
    return run_simulation(**_OVERLOAD)


class TestDeterminism:
    def test_jsonl_timeline_byte_identical(self, overload_report):
        again = run_simulation(**_OVERLOAD)
        assert timeline_jsonl(overload_report.timeline) == timeline_jsonl(
            again.timeline
        )

    def test_table_timeline_byte_identical(self, overload_report):
        again = run_simulation(**_OVERLOAD)
        assert format_timeline(overload_report.timeline) == format_timeline(
            again.timeline
        )

    def test_jsonl_lines_parse_sorted_keys(self, overload_report):
        lines = timeline_jsonl(overload_report.timeline).splitlines()
        kinds = []
        for line in lines:
            row = json.loads(line)
            kinds.append(row["kind"])
            assert list(row) == sorted(row)
        assert kinds[0] == "run"
        assert kinds[-1] == "end"
        assert "window" in kinds and "alert" in kinds


class TestAlertOrdering:
    def test_overload_pages_shed_rate_after_degradation(self, overload_report):
        alerts = overload_report.timeline.alerts
        page = next(
            (t for t in alerts.transitions if (t.slo, t.to_state) == ("shed_rate", PAGE)),
            None,
        )
        assert page is not None, "overload must page the shed-rate SLO"
        assert overload_report.first_degraded_at is not None
        # the ladder engages first; the burn alert recognizes overload later
        assert page.at > overload_report.first_degraded_at
        assert alerts.total_page_seconds() > 0
        assert alerts.worst_state() == PAGE

    def test_summary_is_the_per_window_record_summed_up(self, overload_report):
        # what the timeline used to recompute from its rows: every edge
        # in window order, and the worst state any row ever showed
        timeline = overload_report.timeline
        alerts = timeline.alerts
        assert alerts.transitions == tuple(
            t for w in timeline.windows for t in w.transitions
        )
        assert alerts.worst_state() == worst_of(
            s for w in timeline.windows for s in w.states.values()
        )
        assert alerts.final_states == timeline.windows[-1].states

    def test_overload_windows_show_expired_pressure(self, overload_report):
        # the shed-rate SLO counts deadline-expired work as shed capacity
        assert sum(w.expired for w in overload_report.timeline.windows) > 0

    def test_baseline_stays_ok(self):
        report = run_simulation("baseline", seed=7, scale=0.25)
        alerts = report.timeline.alerts
        assert alerts.transitions == ()
        assert set(alerts.final_states.values()) == {OK}
        assert alerts.total_page_seconds() == 0.0


class TestWindowAccounting:
    def test_windows_contiguous_fixed_width(self, overload_report):
        timeline = overload_report.timeline
        width = timeline.window_seconds
        for i, w in enumerate(timeline.windows):
            assert w.index == i
            assert w.end - w.start == pytest.approx(width)
            assert w.start == pytest.approx(i * width)

    def test_window_totals_match_report(self, overload_report):
        timeline = overload_report.timeline
        report = overload_report
        assert sum(w.offered for w in timeline.windows) == report.arrivals
        assert sum(w.served for w in timeline.windows) == report.served
        assert sum(w.shed for w in timeline.windows) == report.shed
        assert sum(w.degraded for w in timeline.windows) == report.degraded

    def test_tenant_drilldowns_partition_offered(self, overload_report):
        windows = overload_report.timeline.windows
        assert any(w.tenants for w in windows)
        for w in windows:
            assert sum(t.offered for t in w.tenants.values()) == w.offered
            assert sum(t.served for t in w.tenants.values()) == w.served
            for tenant in w.tenants.values():
                if tenant.p99_ms is not None:
                    assert tenant.p99_ms >= 0.0

    def test_custom_window_width(self):
        report = run_simulation(**_OVERLOAD, window_seconds=0.5)
        assert report.timeline.window_seconds == 0.5
        assert len(report.timeline.windows) < len(
            run_simulation(**_OVERLOAD).timeline.windows
        )

    def test_invalid_window_width_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(**_OVERLOAD, window_seconds=0.0)


class TestMultiShardDrilldowns:
    """Regression: tenant drilldowns on *merged shard* windows.

    On a cluster, one tenant's traffic spans replicas, and a request's
    completion can land on a different shard (and window) than its
    admission. The drilldown used to assume one node — tenant discovery
    read only arrival verdicts, so a completion-only tenant vanished
    and its latency folded silently into ``_all``.
    """

    @staticmethod
    def _window(build):
        recorder = WindowRecorder(1.0)
        build(recorder)
        return WindowSnapshot(0, 0.0, 1.0, recorder.registry())

    def _merged_row(self, *builders):
        merged = merge_shard_windows(
            [[self._window(b)] for b in builders]
        )[0]
        evaluator = SLOEvaluator(serving_slos(ServingSLOConfig(), 3.0))
        evaluator.on_window(merged)
        return build_window_row(merged, evaluator, 3.0, ())

    def test_tenant_rows_partition_across_shards(self):
        """tenant-a spans both shards; the merged row must count each
        verdict and serve exactly once."""
        def shard_one(rec):
            for _ in range(4):
                record_window_verdict(rec, "tenant-a", "admit")
                record_window_served(rec, "tenant-a", "zstd-3", False, False, 100, 50)
            record_window_verdict(rec, "tenant-b", "admit")
            record_window_served(rec, "tenant-b", "zstd-3", False, False, 80, 40)

        def shard_two(rec):
            for _ in range(3):
                record_window_verdict(rec, "tenant-a", "admit")
                record_window_served(rec, "tenant-a", "zstd-3", False, False, 100, 50)
            record_window_verdict(rec, "tenant-a", "shed")

        row = self._merged_row(shard_one, shard_two)
        assert row.offered == 9 and row.served == 8
        assert sum(t.offered for t in row.tenants.values()) == row.offered
        assert sum(t.served for t in row.tenants.values()) == row.served
        assert row.tenants["tenant-a"].offered == 8
        assert row.tenants["tenant-a"].served == 7
        assert row.tenants["tenant-b"].offered == 1

    def test_completion_only_tenant_keeps_its_row(self):
        """A tenant admitted in an earlier window whose completion lands
        here (on a replica shard) still gets a drilldown row, carrying
        its latency instead of losing it to the aggregate."""
        def shard_one(rec):
            record_window_verdict(rec, "tenant-live", "admit")
            record_window_served(rec, "tenant-live", "zstd-3", False, False, 60, 30)

        def shard_two(rec):
            record_window_completion(
                rec, "tenant-late", 0.123, 0.010, on_time=True, bytes_in=500
            )

        row = self._merged_row(shard_one, shard_two)
        assert set(row.tenants) == {"tenant-live", "tenant-late"}
        late = row.tenants["tenant-late"]
        assert late.offered == 0 and late.served == 0
        assert late.p99_ms == pytest.approx(123.0, rel=0.2)
        # and still a partition: the phantom row contributes zeros
        assert sum(t.offered for t in row.tenants.values()) == row.offered

    def test_window_tenants_spans_all_series(self):
        recorder = WindowRecorder(1.0)
        record_window_verdict(recorder, "by-verdict", "throttle")
        record_window_served(recorder, "by-serve", "lz4-1", False, True, 10, 10)
        record_window_completion(
            recorder, "by-latency", 0.05, 0.0, on_time=True, bytes_in=10
        )
        assert window_tenants(recorder.registry()) == [
            "by-latency", "by-serve", "by-verdict",
        ]


class TestConfig:
    def test_serving_slos_cover_the_four_objectives(self):
        names = {s.name for s in serving_slos(ServingSLOConfig(), 3.0)}
        assert names == {"shed_rate", "latency_p99", "goodput", "ratio_lost"}

    def test_custom_budget_changes_alerting(self):
        # an absurdly lax shed budget keeps overload from paging shed_rate
        lax = ServingSLOConfig(shed_budget=0.9)
        report = run_simulation(**_OVERLOAD, slo_config=lax)
        assert ("shed_rate", PAGE) not in {
            (t.slo, t.to_state) for t in report.timeline.alerts.transitions
        }

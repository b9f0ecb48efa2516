"""The chaos runner and its CLI: determinism, survival, exit codes."""

import pytest

from repro.chaos import format_scorecard, run_chaos
from repro.cli import main
from repro.obs.slo import worst_of


class TestRunChaos:
    def test_standard_plan_recovers_and_never_crashes(self):
        report = run_chaos(plan="standard", seed=7, ops=0.5)
        assert report.recovered > 0
        assert report.failed == 0
        assert report.ok + report.recovered == report.operations
        assert report.faults_injected > 0

    def test_byte_identical_across_runs(self):
        first = format_scorecard(run_chaos(plan="standard", seed=7, ops=0.5))
        second = format_scorecard(run_chaos(plan="standard", seed=7, ops=0.5))
        assert first == second

    def test_seed_changes_the_scorecard(self):
        first = format_scorecard(run_chaos(plan="standard", seed=7, ops=0.5))
        second = format_scorecard(run_chaos(plan="standard", seed=8, ops=0.5))
        assert first != second

    def test_none_plan_injects_nothing(self):
        report = run_chaos(plan="none", seed=7, ops=0.25)
        assert report.faults_injected == 0
        assert report.failed == 0
        assert report.fault_breakdown == []

    def test_every_named_plan_survives(self):
        from repro.faults import NAMED_PLANS

        for name in NAMED_PLANS:
            report = run_chaos(plan=name, seed=3, ops=0.25)
            assert report.operations > 0
            # the resilience contract: no operation may be lost silently --
            # every one lands in exactly one of ok/recovered/failed
            assert report.ok + report.recovered + report.failed == report.operations

    def test_ops_scales_operation_counts(self):
        small = run_chaos(plan="none", seed=1, ops=0.25)
        full = run_chaos(plan="none", seed=1, ops=1.0)
        assert small.operations < full.operations

    def test_unknown_plan_raises(self):
        with pytest.raises(ValueError, match="available"):
            run_chaos(plan="hurricane", seed=1)

    def test_recovery_latency_histogram_populated(self):
        report = run_chaos(plan="standard", seed=7, ops=0.5)
        count = report.recovery.count(source="all")
        assert count == report.recovered
        assert report.recovery.p50(source="all") >= 0.0


class TestScorecardFormat:
    def test_contains_every_scenario_line(self):
        report = run_chaos(plan="standard", seed=7, ops=0.25)
        text = format_scorecard(report)
        for name in [
            "rpc", "cache", "kvstore", "farmem", "managed", "serving",
            "kvstore-crash", "total",
        ]:
            assert name in text
        assert "plan 'standard', seed 7" in text

    def test_recovery_rows_are_the_scenario_rows(self):
        # a full-size standard run re-homes requests off dead nodes; their
        # recoveries print under the scenario's name and no row goes missing
        report = run_chaos(plan="standard", seed=7, ops=1.0)
        by_name = {s.name: s for s in report.scenarios}
        assert by_name["cluster-node-loss"].notes["rehomed"] > 0
        counts = {
            line.split()[0]: int(line.split("n=")[1].split()[0])
            for line in format_scorecard(report).splitlines()
            if " n=" in line
        }
        total = counts.pop("all")
        assert counts["cluster-node-loss"] > 0
        assert set(counts) <= set(by_name)
        assert sum(counts.values()) == total == report.recovery.count(source="all")

    def test_dropped_filters_are_a_kvstore_crash_note_only_when_there_are_any(
        self, monkeypatch
    ):
        from repro.services.kvstore import SimStorage

        def crash_line(report):
            (line,) = [
                line
                for line in format_scorecard(report).splitlines()
                if line.startswith("  kvstore-crash:")
            ]
            return line

        assert "filters_dropped" not in crash_line(
            run_chaos(plan="standard", seed=7, ops=4.0)
        )
        view = SimStorage.view

        def view_with_a_decayed_sst_tail(self, name):
            data = view(self, name)
            if name.startswith("sst-"):
                data = bytes(data[:-1]) + bytes([data[-1] ^ 0x10])
            return data

        monkeypatch.setattr(SimStorage, "view", view_with_a_decayed_sst_tail)
        report = run_chaos(plan="standard", seed=7, ops=4.0)
        crash = {s.name: s for s in report.scenarios}["kvstore-crash"]
        assert crash.notes["crashes"] > 0 and crash.failed == 0
        assert f"filters_dropped={crash.notes['filters_dropped']}" in crash_line(report)
        assert crash.notes["filters_dropped"] > 0

    def test_none_plan_omits_fault_breakdown(self):
        text = format_scorecard(run_chaos(plan="none", seed=7, ops=0.25))
        assert "faults by site" not in text
        assert "0 faults injected" in text


class TestChaosCli:
    def test_exit_zero_on_survival(self, capsys):
        code = main(
            ["chaos", "--plan", "standard", "--seed", "7", "--ops", "0.25",
             "--min-recovered", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos scorecard" in out

    def test_exit_one_when_min_recovered_unmet(self, capsys):
        code = main(
            ["chaos", "--plan", "none", "--seed", "7", "--ops", "0.25",
             "--min-recovered", "10000"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.err
        # stdout is exactly the scorecard: the verdict never pollutes it
        report = run_chaos(plan="none", seed=7, ops=0.25)
        assert captured.out == format_scorecard(report) + "\n"

    def test_exit_one_when_max_failed_exceeded(self, capsys):
        code = main(
            ["chaos", "--plan", "standard", "--seed", "7", "--ops", "0.25",
             "--max-failed", "-1"]
        )
        assert code == 1

    def test_rejects_unknown_plan(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--plan", "hurricane"])


class TestChaosTimeline:
    def test_timeline_windows_cover_every_operation(self):
        report = run_chaos(plan="standard", seed=7, ops=0.5)
        timeline = report.timeline
        total_ops = sum(
            s.ok + s.recovered + s.failed for s in report.scenarios
        )
        assert sum(
            w.ok + w.recovered + w.failed for w in timeline.windows
        ) == total_ops
        for i, window in enumerate(timeline.windows):
            assert window.index == i
            assert window.start_op == i * timeline.window_ops

    def test_outcome_streams_match_counters(self):
        report = run_chaos(plan="standard", seed=7, ops=0.5)
        for scenario in report.scenarios:
            assert len(scenario.outcomes) == (
                scenario.ok + scenario.recovered + scenario.failed
            )
            assert scenario.outcomes.count("ok") == scenario.ok
            assert scenario.outcomes.count("recovered") == scenario.recovered
            assert scenario.outcomes.count("failed") == scenario.failed

    def test_timeline_deterministic_per_seed(self):
        def edges(seed):
            timeline = run_chaos(plan="standard", seed=seed, ops=0.5).timeline
            return [
                (t.at, t.slo, t.from_state, t.to_state)
                for t in timeline.alerts.transitions
            ]

        assert edges(7) == edges(7)

    def test_standard_plan_alerts_on_recovery_pressure(self):
        timeline = run_chaos(plan="standard", seed=7, ops=0.5).timeline
        alerts = timeline.alerts
        assert any(
            t.slo == "recovery_rate" and t.to_state in ("warn", "page")
            for t in alerts.transitions
        )
        # the summary's worst state is the worst any window row showed
        assert alerts.worst_state() in ("warn", "page")
        assert alerts.worst_state() == worst_of(
            s for w in timeline.windows for s in w.states.values()
        )
        assert alerts.transitions == tuple(
            t for w in timeline.windows for t in w.transitions
        )

    def test_none_plan_never_alerts_on_failures(self):
        # without injected faults nothing fails, so the failure-rate SLO
        # stays silent; recovery_rate may still fire (the managed and
        # serving substrates recover through fallbacks even unfaulted)
        timeline = run_chaos(plan="none", seed=7, ops=0.5).timeline
        assert all(t.slo != "failure_rate" for t in timeline.alerts.transitions)

    def test_all_ok_stream_stays_quiet(self):
        from repro.chaos import ScenarioResult, build_chaos_timeline

        clean = ScenarioResult(
            name="synthetic", operations=200, outcomes=["ok"] * 200,
        )
        timeline = build_chaos_timeline([clean])
        assert timeline.alerts.transitions == ()
        assert timeline.alerts.worst_state() == "ok"
        assert len(timeline.windows) == 200 // timeline.window_ops

    def test_scorecard_renders_alert_section(self):
        report = run_chaos(plan="standard", seed=7, ops=0.5)
        card = format_scorecard(report)
        assert "alert timeline (25-op windows" in card
        assert "final states:" in card
        assert "recovery_rate" in card

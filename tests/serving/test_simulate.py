"""Discrete-event simulation: determinism and the degrade-before-shed claim."""

import pytest

from repro.serving.simulate import (
    SCENARIOS,
    ServingReport,
    format_scorecard,
    run_simulation,
)
from repro.serving.slos import ALL_TENANTS, ratio_lost, window_latency_p99

_SMOKE_SCALE = 0.1


class TestDeterminism:
    def test_scorecard_byte_identical_per_seed(self):
        a = run_simulation("baseline", seed=7, scale=_SMOKE_SCALE)
        b = run_simulation("baseline", seed=7, scale=_SMOKE_SCALE)
        assert format_scorecard(a) == format_scorecard(b)

    def test_seed_changes_the_run(self):
        a = run_simulation("baseline", seed=7, scale=_SMOKE_SCALE)
        b = run_simulation("baseline", seed=8, scale=_SMOKE_SCALE)
        assert format_scorecard(a) != format_scorecard(b)


class TestScenarios:
    def test_known_scenarios(self):
        assert set(SCENARIOS) == {"baseline", "overload", "burst"}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_simulation("meltdown", seed=7)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            run_simulation("baseline", scale=0.0)

    def test_baseline_serves_everything_admitted(self):
        report = run_simulation("baseline", seed=7, scale=0.25)
        assert report.arrivals > 0
        assert report.shed == 0
        assert report.served + report.expired == report.admitted
        assert report.on_time + report.tardy == report.served
        assert report.makespan_seconds > 0

    def test_overload_degrades_before_shedding(self):
        """The acceptance property: the ladder engages -- nonzero degraded
        count and a lower p99 than the same run with degradation disabled
        -- before any request is shed."""
        ladder_on = run_simulation("overload", seed=7, scale=0.25)
        ladder_off = run_simulation(
            "overload", seed=7, scale=0.25, degradation=False
        )
        assert ladder_on.degraded > 0
        assert ladder_on.first_degraded_at is not None
        if ladder_on.first_shed_at is not None:
            assert ladder_on.first_degraded_at < ladder_on.first_shed_at
        assert ladder_on.shed == 0
        assert window_latency_p99(
            ladder_on.registry, ALL_TENANTS
        ) < window_latency_p99(ladder_off.registry, ALL_TENANTS)
        assert ladder_off.degraded == 0
        # the ladder pays for its latency win in ratio, and says so
        assert ladder_on.ratio_lost_to_degradation() > 0
        assert ladder_off.ratio_lost_to_degradation() == 0


class TestReportMath:
    def _report(self, **overrides):
        fields = dict(
            scenario="x",
            seed=1,
            degradation_enabled=True,
            ladder_labels=["zstd-6", "lz4-1"],
            thresholds=[0.3],
            rung0_ratio=4.0,
            arrivals=10,
            served=8,
            bytes_in_served=8000,
            bytes_out=2500,
            bytes_on_time=6000,
            makespan_seconds=2.0,
        )
        fields.update(overrides)
        return ServingReport(**fields)

    def test_goodput(self):
        assert self._report().goodput_bytes_per_second == pytest.approx(3000.0)
        assert self._report(makespan_seconds=0.0).goodput_bytes_per_second == 0.0

    def test_achieved_ratio(self):
        assert self._report().achieved_ratio == pytest.approx(8000 / 2500)

    def test_shed_rate(self):
        assert self._report(shed=2).shed_rate() == pytest.approx(0.2)
        assert self._report(arrivals=0).shed_rate() == 0.0

    #: the byte volumes ``ratio_lost`` reads, as ``traffic_counts`` names them
    _BYTES = dict(
        bytes_in_served=8000,
        bytes_out=2500,
        bytes_in_degraded=4000,
        bytes_out_degraded=1500,
    )

    def test_ratio_lost_counterfactual(self):
        # counterfactual: degraded input re-served at the rung-0 ratio
        counterfactual_out = 2500 - 1500 + 4000 / 4.0
        expected = 1.0 - (8000 / 2500) / (8000 / counterfactual_out)
        assert ratio_lost(self._BYTES, 4.0) == pytest.approx(expected)
        assert ratio_lost(self._BYTES, 4.0) > 0

    def test_ratio_lost_zero_without_degradation(self):
        counts = dict(self._BYTES, bytes_in_degraded=0, bytes_out_degraded=0)
        assert ratio_lost(counts, 4.0) == 0.0

    def test_ratio_lost_undefined_inputs(self):
        # nothing compressed, or no rung-0 reference: undefined, and the
        # report's reading of an undefined loss is 0.0
        assert ratio_lost(dict(self._BYTES, bytes_out=0), 4.0) is None
        assert ratio_lost(self._BYTES, 0.0) is None
        assert self._report().ratio_lost_to_degradation() == 0.0

    def test_scorecard_mentions_the_essentials(self):
        text = format_scorecard(self._report(shed=1, degraded=3))
        assert "scenario 'x', seed 1" in text
        assert "zstd-6 -> lz4-1" in text
        assert "shed rate 10.0%" in text
        assert "lost to degradation" in text

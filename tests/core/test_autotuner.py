"""Auto-tuner tests: drift detection and re-tuning."""

import pytest

from repro.core import CostModel, CostParameters
from repro.core.autotuner import AutoTuner, byte_histogram, histogram_distance
from repro.core.config import config_grid
from repro.corpus import generate_ads_request, generate_records


@pytest.fixture()
def tuner():
    model = CostModel(CostParameters.from_price_book(beta=1e-6))
    grid = config_grid(["zstd", "lz4"], levels=[1, 3, 6])
    return AutoTuner(model, grid, drift_threshold=0.08, window=4)


class TestHistograms:
    def test_histogram_normalized(self):
        hist = byte_histogram([b"aabb", b"cc"])
        assert sum(hist) == pytest.approx(1.0)
        assert hist[ord("a")] == pytest.approx(2 / 6)

    def test_empty_histogram(self):
        assert sum(byte_histogram([])) == 0.0

    def test_distance_bounds(self):
        a = byte_histogram([b"aaaa"])
        b = byte_histogram([b"bbbb"])
        assert histogram_distance(a, a) == 0.0
        assert histogram_distance(a, b) == pytest.approx(1.0)


class TestAutoTuner:
    def test_first_observation_tunes(self, tuner):
        event = tuner.observe([generate_records(4096, seed=1)])
        assert event is not None
        assert event.reason == "initial tuning"
        assert tuner.current is not None

    def test_same_distribution_does_not_retune(self, tuner):
        tuner.observe([generate_records(4096, seed=1)])
        event = tuner.observe([generate_records(4096, seed=2)])
        assert event is None
        assert len(tuner.history) == 1

    def test_drift_triggers_retune(self, tuner):
        tuner.observe([generate_records(4096, seed=1)] * 4)
        # Switch the workload to binary embeddings: large drift.
        event = tuner.observe(
            [generate_ads_request("B", seed=s)[:4096] for s in range(4)]
        )
        assert event is not None
        assert event.drift >= tuner.drift_threshold
        assert len(tuner.history) == 2

    def test_retune_changes_config_for_changed_data(self, tuner):
        tuner.observe([generate_records(4096, seed=1)] * 4)
        first = tuner.current.config
        tuner.observe([generate_ads_request("B", seed=s)[:4096] for s in range(4)])
        second = tuner.current.config
        # The structured-data optimum and the binary-data optimum differ
        # (at minimum in level; the drift test in examples shows the same).
        assert first is not None and second is not None

    def test_empty_grid_rejected(self):
        model = CostModel(CostParameters.from_price_book())
        with pytest.raises(ValueError):
            AutoTuner(model, [])

    def test_observe_ignores_empty_samples(self, tuner):
        assert tuner.observe([b"", b""]) is None

    def test_requirements_respected(self):
        from repro.core import MinCompressionSpeed

        model = CostModel(CostParameters.from_price_book(beta=1e-6))
        grid = config_grid(["zstd", "zlib"], levels=[1, 6])
        tuner = AutoTuner(model, grid, requirements=[MinCompressionSpeed(250e6)])
        tuner.observe([generate_records(4096, seed=3)] * 3)
        assert tuner.current.config.algorithm == "zstd"
        assert tuner.current.metrics.compression_speed >= 250e6


class TestTuningEvents:
    def test_initial_event_records_full_drift(self, tuner):
        event = tuner.observe([generate_records(2048, seed=9)])
        assert event.reason == "initial tuning"
        assert event.drift == 1.0
        assert tuner.history == [event]
        assert event.chosen is tuner.current

    def test_drift_event_contents(self, tuner):
        tuner.observe([generate_records(4096, seed=1)] * 4)
        drifted = [generate_ads_request("B", seed=s)[:4096] for s in range(4)]
        event = tuner.observe(drifted)
        assert event is tuner.history[-1]
        assert event.reason == f"drift {event.drift:.3f} >= {tuner.drift_threshold}"
        assert tuner.drift_threshold <= event.drift <= 1.0
        assert event.chosen is tuner.current
        assert event.chosen.config in tuner.candidates

    def test_retune_refreshes_tuned_histogram(self, tuner):
        tuner.observe([generate_records(4096, seed=1)] * 4)
        drifted = [generate_ads_request("B", seed=s)[:4096] for s in range(4)]
        assert tuner.observe(drifted) is not None
        # the drifted distribution is now the tuned baseline: feeding the
        # same samples again must not retune
        assert tuner.observe(drifted) is None
        assert len(tuner.history) == 2

    def test_infeasible_requirements_fall_back_to_best_any(self):
        from repro.core import MinCompressionSpeed

        model = CostModel(CostParameters.from_price_book(beta=1e-6))
        grid = config_grid(["zstd"], levels=[1, 3])
        tuner = AutoTuner(
            model, grid, requirements=[MinCompressionSpeed(1e18)]
        )
        event = tuner.observe([generate_records(4096, seed=4)] * 3)
        assert event is not None and event.chosen is not None
        assert not event.chosen.feasible

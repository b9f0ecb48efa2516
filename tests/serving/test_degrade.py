"""Degradation ladder: thresholds, rung selection, CompOpt construction."""

import pytest

from repro.core.config import CompressionConfig
from repro.corpus import generate_logs
from repro.serving.degrade import (
    DegradationLadder,
    Rung,
    build_ladder,
    default_thresholds,
)


def _rung(algorithm="zstd", level=3, spb=1e-9, ratio=4.0, cost=1.0):
    return Rung(
        config=CompressionConfig(algorithm=algorithm, level=level),
        seconds_per_byte=spb,
        ratio=ratio,
        total_cost=cost,
    )


class TestThresholds:
    def test_default_thresholds_shape(self):
        assert default_thresholds(1) == []
        assert default_thresholds(2) == [0.3]
        four = default_thresholds(4)
        assert len(four) == 3
        assert four[0] == pytest.approx(0.3)
        assert all(b > a for a, b in zip(four, four[1:]))
        # the whole ladder engages strictly before the shed point at 1.0
        assert four[-1] < 1.0

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            DegradationLadder([])


class TestSelection:
    def test_select_steps_through_thresholds(self):
        ladder = DegradationLadder(
            [_rung(level=6), _rung(level=3), _rung(level=1)]
        )
        # three rungs step at default_thresholds(3) == [0.3, 0.6]
        assert ladder.thresholds == pytest.approx([0.3, 0.6])
        assert ladder.select(0.0) == 0
        assert ladder.select(0.29) == 0
        assert ladder.select(0.3) == 1
        assert ladder.select(0.59) == 1
        assert ladder.select(0.61) == 2

    def test_select_pins_past_the_last_threshold(self):
        ladder = DegradationLadder([_rung(level=6), _rung(level=1)])
        assert ladder.select(5.0) == 1

    def test_single_rung_never_degrades(self):
        ladder = DegradationLadder([_rung()])
        assert len(ladder) == 1
        assert ladder.select(99.0) == 0


class TestBuildLadder:
    @pytest.fixture(scope="class")
    def ladder(self):
        samples = [generate_logs(4096, seed=s) for s in range(4)]
        return build_ladder(
            samples, algorithms=("zstd", "lz4"), levels=(1, 3, 6)
        )

    def test_rungs_strictly_faster_down_the_ladder(self, ladder):
        speeds = [rung.seconds_per_byte for rung in ladder.rungs]
        assert all(b < a for a, b in zip(speeds, speeds[1:]))

    def test_deeper_rungs_trade_ratio_for_speed(self, ladder):
        assert len(ladder) >= 2
        # frontier points faster than rung 0 cannot also beat its ratio
        # (rung 0 would not have been cost-optimal otherwise)
        assert ladder.rungs[-1].ratio <= ladder.rungs[0].ratio

    def test_rung0_is_cost_optimal(self, ladder):
        costs = [rung.total_cost for rung in ladder.rungs]
        assert costs[0] == min(costs)

    def test_max_rungs_respected(self):
        samples = [generate_logs(4096, seed=s) for s in range(4)]
        ladder = build_ladder(
            samples, algorithms=("zstd", "lz4"), levels=(1, 2, 3, 6)
        )
        # six frontier points are faster than rung 0 on these samples; the
        # ladder keeps three of them, the fastest among them
        assert ladder.labels() == ["zstd-6", "zstd-3", "zstd-2", "lz4-1"]

    def test_labels_match_configs(self, ladder):
        assert ladder.labels() == [r.config.label() for r in ladder.rungs]

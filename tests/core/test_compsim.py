"""CompSim tests: accelerators as candidates inside CompOpt."""

import pytest

from repro.core import (
    CompEngine,
    CompOpt,
    CompressionConfig,
    CompSim,
    CostModel,
    CostParameters,
)
from repro.core.compsim import WindowLimitedZstd
from repro.corpus import generate_records


@pytest.fixture(scope="module")
def engine():
    return CompEngine([generate_records(16384, seed=1)])


class TestWindowLimitedZstd:
    def test_window_log_bounds(self):
        with pytest.raises(ValueError):
            WindowLimitedZstd(8)
        with pytest.raises(ValueError):
            WindowLimitedZstd(30)

    def test_params_clamped(self):
        limited = WindowLimitedZstd(12)
        params = limited.params_for_level(9)
        assert params.window_log <= 12

    def test_roundtrip(self):
        limited = WindowLimitedZstd(12)
        data = generate_records(8192, seed=2)
        result = limited.compress(data, 3)
        assert limited.decompress(result.data).data == data

    def test_large_window_wins_on_long_range_redundancy(self):
        # A 16KB segment repeating at distance ~32KB: only windows larger
        # than the repeat distance can exploit it.
        from repro.corpus import generate_text

        segment = generate_text(16384, seed=3)
        filler = generate_records(32768, seed=4)
        data = segment + filler + segment
        tiny = WindowLimitedZstd(10).compress(data, 3)
        full = WindowLimitedZstd(17).compress(data, 3)
        assert len(full.data) < len(tiny.data) * 0.92

    def test_short_range_data_insensitive_to_window(self):
        # Records have line-scale redundancy only; window size barely
        # matters (the paper's Fig. 16 plateau effect).
        data = generate_records(32768, seed=3)
        small = WindowLimitedZstd(12).compress(data, 3)
        full = WindowLimitedZstd(18).compress(data, 3)
        assert abs(len(full.data) - len(small.data)) / len(small.data) < 0.08


class TestCompSim:
    def test_accelerator_evaluated_as_candidate(self, engine):
        sim = CompSim(engine)
        sim.add_accelerator("accel-x", window_log=16, gamma=10.0)
        metrics = engine.measure(CompressionConfig("accel-x", 1))
        assert metrics.ratio > 1

    def test_gamma_makes_accelerator_faster_than_software(self, engine):
        sim = CompSim(engine)
        sim.add_accelerator("accel-fast", window_log=18, gamma=10.0)
        software = engine.measure(CompressionConfig("zstd", 1))
        accelerated = engine.measure(CompressionConfig("accel-fast", 1))
        assert accelerated.compression_speed > 3 * software.compression_speed

    def test_window_sweep_ratio_plateaus(self):
        """Fig. 16's mechanism: ratio stops improving past the data's
        correlation window, so cost reaches a plateau."""
        from repro.corpus import generate_text

        segment = generate_text(12000, seed=7)
        filler = generate_records(20000, seed=8)
        sweep_engine = CompEngine([segment + filler + segment])
        sim = CompSim(sweep_engine)
        ratios = {}
        for window_log in (10, 13, 16, 18, 20):
            name = f"sweep-{window_log}"
            sim.add_accelerator(name, window_log=window_log, gamma=10.0)
            ratios[window_log] = sweep_engine.measure(
                CompressionConfig(name, 1)
            ).ratio
        assert ratios[20] == pytest.approx(ratios[18], rel=0.02)
        assert ratios[10] < ratios[16]

    def test_accelerator_inside_compopt(self, engine):
        sim = CompSim(engine)
        sim.add_accelerator("qat-like", window_log=17, gamma=10.0)
        model = CostModel(CostParameters.from_price_book(beta=1e-6))
        opt = CompOpt(engine, model)
        result = opt.optimize(
            [CompressionConfig("zstd", 1), CompressionConfig("qat-like", 1)]
        )
        by_algo = {r.config.algorithm: r for r in result.ranked}
        assert by_algo["qat-like"].cost.compute < by_algo["zstd"].cost.compute

"""CompEngine tests: measurement, blocks, caching, dictionaries."""

import pytest

from repro.core import CompEngine, CompressionConfig
from repro.corpus import generate_records


@pytest.fixture(scope="module")
def samples():
    return [generate_records(8192, seed=s) for s in range(3)]


class TestMeasure:
    def test_metrics_shape(self, samples):
        engine = CompEngine(samples)
        metrics = engine.measure(CompressionConfig("zstd", 3))
        assert metrics.ratio > 1
        assert metrics.compression_speed > 0
        assert metrics.decompression_speed > 0
        assert metrics.input_bytes == sum(len(s) for s in samples)
        assert metrics.block_count == len(samples)

    def test_block_size_splits_samples(self, samples):
        engine = CompEngine(samples)
        whole = engine.measure(CompressionConfig("zstd", 1))
        split = engine.measure(CompressionConfig("zstd", 1, 1024))
        assert split.block_count > whole.block_count

    def test_smaller_blocks_worse_ratio(self, samples):
        """The core Fig. 13 trade-off, measured through the engine."""
        engine = CompEngine(samples)
        small = engine.measure(CompressionConfig("zstd", 1, 1024))
        large = engine.measure(CompressionConfig("zstd", 1, 16384))
        assert large.ratio > small.ratio

    def test_smaller_blocks_faster_decode_per_block(self, samples):
        engine = CompEngine(samples)
        small = engine.measure(CompressionConfig("zstd", 1, 1024))
        large = engine.measure(CompressionConfig("zstd", 1, 16384))
        assert small.decode_seconds_per_block < large.decode_seconds_per_block

    def test_results_cached(self, samples):
        engine = CompEngine(samples)
        config = CompressionConfig("zstd", 3)
        first = engine.measure(config)
        assert engine.measure(config) is first

    def test_wallclock_timing_mode(self, samples):
        engine = CompEngine(samples[:1], timing="wallclock")
        metrics = engine.measure(CompressionConfig("zstd", 1))
        assert metrics.compression_speed > 0

    def test_invalid_timing_mode(self, samples):
        with pytest.raises(ValueError):
            CompEngine(samples, timing="guess")

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            CompEngine([])

    def test_dictionary_mode(self):
        items = [
            b'{"k": %d, "country": "US", "status": "on"}' % i for i in range(40)
        ]
        from repro.codecs import train_dictionary

        dictionary = train_dictionary(items[:30], 2048)
        engine = CompEngine(items[30:], dictionary=dictionary.content)
        plain = engine.measure(CompressionConfig("zstd", 3))
        dicted = engine.measure(CompressionConfig("zstd", 3), use_dictionary=True)
        assert dicted.ratio > plain.ratio

    def test_match_finding_share_reported(self, samples):
        engine = CompEngine(samples)
        low = engine.measure(CompressionConfig("zstd", 1))
        high = engine.measure(CompressionConfig("zstd", 9))
        assert 0 < low.match_finding_share < 1
        assert high.match_finding_share > low.match_finding_share

    def test_metrics_derived_properties(self, samples):
        engine = CompEngine(samples)
        metrics = engine.measure(CompressionConfig("zstd", 3))
        assert metrics.compress_seconds == pytest.approx(
            metrics.input_bytes / metrics.compression_speed
        )
        assert 0 < metrics.compressed_bytes < metrics.input_bytes

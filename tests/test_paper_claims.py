"""Integration tests asserting the paper's qualitative claims end-to-end.

Each test names the claim and the paper section it comes from. These are the
"shape" checks DESIGN.md promises: who wins, what dominates, where the
trade-offs bend -- not absolute numbers.
"""

import pytest

from repro.codecs import get_codec, train_dictionary
from repro.core import (
    CompEngine,
    CompOpt,
    CompressionConfig,
    CostModel,
    CostParameters,
    MaxBlockDecodeLatency,
    MinCompressionSpeed,
)
from repro.core.config import config_grid
from repro.corpus import (
    CACHE1_TYPES,
    generate_ads_request,
    generate_cache_items,
    generate_kv_records,
    silesia_like_corpus,
)
from repro.perfmodel import DEFAULT_MACHINE
from repro.services.kvstore import SSTable


class TestSection1Figure1:
    """Fig. 1: metrics depend heavily on the data; order-of-magnitude spread."""

    @pytest.fixture(scope="class")
    def corpus_metrics(self):
        corpus = silesia_like_corpus(1 << 14)
        zstd = get_codec("zstd")
        out = {}
        for name, data in corpus.items():
            result = zstd.compress(data, 3)
            out[name] = (
                result.ratio,
                DEFAULT_MACHINE.compress_speed("zstd", result.counters),
            )
        return out

    def test_ratio_spread_exceeds_3x(self, corpus_metrics):
        ratios = [r for r, __ in corpus_metrics.values()]
        assert max(ratios) / min(ratios) > 3

    def test_speed_depends_on_data(self, corpus_metrics):
        speeds = [s for __, s in corpus_metrics.values()]
        assert max(speeds) / min(speeds) > 1.5

    def test_binary_hardest_markup_easiest(self, corpus_metrics):
        assert corpus_metrics["mozilla-like"][0] == min(
            r for r, __ in corpus_metrics.values()
        )
        assert corpus_metrics["xml-like"][0] == max(
            r for r, __ in corpus_metrics.values()
        )


class TestSection2Tradeoffs:
    """Section II-B: the two trade-off axes of LZ compressors."""

    def test_level_trades_compression_speed_for_ratio(self):
        data = silesia_like_corpus(1 << 14)["dickens-like"]
        zstd = get_codec("zstd")
        low = zstd.compress(data, 1)
        high = zstd.compress(data, 15)
        assert high.ratio > low.ratio
        assert DEFAULT_MACHINE.compress_speed(
            "zstd", high.counters
        ) < DEFAULT_MACHINE.compress_speed("zstd", low.counters)

    def test_entropy_stage_trades_ratio_for_decode_speed(self):
        """LZ4 (no entropy stage) decodes faster but compresses worse than
        zstd on the same parse-friendly data."""
        data = silesia_like_corpus(1 << 14)["dickens-like"]
        zstd_result = get_codec("zstd").compress(data, 3)
        lz4_result = get_codec("lz4").compress(data, 3)
        zstd_decode = get_codec("zstd").decompress(zstd_result.data)
        lz4_decode = get_codec("lz4").decompress(lz4_result.data)
        assert zstd_result.ratio > lz4_result.ratio
        assert DEFAULT_MACHINE.decompress_speed(
            "lz4", lz4_decode.counters
        ) > DEFAULT_MACHINE.decompress_speed("zstd", zstd_decode.counters)


class TestSection4Cache:
    """Section IV-C: dictionary compression for small typed items."""

    def test_dictionary_recovers_small_item_ratio(self):
        items = generate_cache_items(CACHE1_TYPES, 300, seed=21)
        payloads = [p for __, p in items if len(p) < 1024]
        dictionary = train_dictionary(payloads[:200], max_size=8192)
        zstd = get_codec("zstd")
        test_set = payloads[200:260]
        plain = sum(len(zstd.compress(p, 3).data) for p in test_set)
        dicted = sum(
            len(zstd.compress(p, 3, dictionary=dictionary.content).data)
            for p in test_set
        )
        raw = sum(len(p) for p in test_set)
        # plain compression struggles on small items; the dictionary
        # recovers a much better ratio.
        assert dicted < plain
        assert raw / dicted > 1.25 * (raw / plain)


class TestSection4KVStore:
    """Section IV-E / Fig. 13: block size trade-offs."""

    @pytest.fixture(scope="class")
    def sweep(self):
        entries = generate_kv_records(1500, seed=22)
        out = {}
        for block_size in (1024, 4096, 16384, 65536):
            table = SSTable.build(entries, level=1, block_size=block_size)
            key = entries[700][0]
            __, __, decode_seconds = table.get(key)
            ratio = table.raw_bytes / table.stored_bytes
            out[block_size] = (ratio, decode_seconds)
        return out

    def test_ratio_improves_with_block_size(self, sweep):
        ratios = [sweep[b][0] for b in sorted(sweep)]
        assert ratios == sorted(ratios)

    def test_decode_time_grows_with_block_size(self, sweep):
        times = [sweep[b][1] for b in sorted(sweep)]
        assert times[-1] > times[0] * 4


class TestSection5SensitivityStudies:
    """Section V-B: the three sensitivity studies' qualitative outcomes."""

    @pytest.fixture(scope="class")
    def ads_engine(self):
        return CompEngine([generate_ads_request("B", seed=s) for s in range(2)])

    def test_study1_speed_constraint_excludes_slow_configs(self, ads_engine):
        params = CostParameters.from_price_book(storage_weight=0.0, beta=1e-7)
        opt = CompOpt(
            ads_engine, CostModel(params), [MinCompressionSpeed(200e6)]
        )
        grid = config_grid(["zstd", "lz4", "zlib"], levels=[1, 3, 6, 9])
        result = opt.optimize(grid)
        assert result.best is not None
        # zlib can't reach 200 MB/s at any level (Fig. 15a's filtering)
        assert all(
            not r.feasible for r in result.ranked if r.config.algorithm == "zlib"
        )
        assert result.best.config.algorithm in ("zstd", "lz4")

    def test_study1_best_beats_worst_substantially(self, ads_engine):
        """The paper reports the best option 73% below the worst."""
        params = CostParameters.from_price_book(storage_weight=0.0, beta=1e-7)
        opt = CompOpt(ads_engine, CostModel(params))
        grid = config_grid(["zstd", "lz4", "zlib"], levels=[1, 3, 6, 9])
        result = opt.optimize(grid)
        assert result.best_any.total_cost < 0.7 * result.worst.total_cost

    def test_study2_latency_constraint_changes_winner(self):
        samples = [b"".join(
            k + b"\x00" + v for k, v in generate_kv_records(800, seed=23)
        )]
        engine = CompEngine(samples)
        params = CostParameters.from_price_book(
            network_weight=0.0, storage_kind="flash", beta=1e-7,
        )
        grid = [
            CompressionConfig("zstd", 1, b)
            for b in (4096, 8192, 16384, 32768, 65536)
        ]
        unconstrained = CompOpt(engine, CostModel(params)).optimize(grid)
        tight_latency = unconstrained.ranked[0]  # cheapest overall
        # pick a latency budget that excludes the biggest blocks
        threshold = engine.measure(
            CompressionConfig("zstd", 1, 16384)
        ).decode_seconds_per_block * 1.05
        constrained = CompOpt(
            engine, CostModel(params), [MaxBlockDecodeLatency(threshold)]
        ).optimize(grid)
        assert constrained.best is not None
        assert constrained.best.config.block_size <= 16384

    def test_study3_window_cost_plateau(self):
        """Fig. 16: cost flattens once the window covers the redundancy."""
        from repro.core import CompSim
        from repro.corpus import generate_text, generate_records

        segment = generate_text(8000, seed=24)
        data = segment + generate_records(12000, seed=25) + segment
        engine = CompEngine([data])
        sim = CompSim(engine)
        params = CostParameters.from_price_book(storage_weight=0.0, beta=1e-7)
        model = CostModel(params)
        totals = {}
        for window_log in (10, 14, 16, 18, 20):
            name = f"hw-{window_log}"
            sim.add_accelerator(name, window_log=window_log, gamma=10.0)
            metrics = engine.measure(CompressionConfig(name, 1))
            totals[window_log] = model.total(metrics)
        assert totals[18] == pytest.approx(totals[20], rel=0.05)
        assert totals[10] > totals[18]

"""Fleet registry, profiler, and characterization tests."""

import pytest

from repro.fleet import (
    DEFAULT_FLEET,
    SamplingProfiler,
    ServiceProfile,
    characterize,
)
from repro.fleet.callstack import (
    build_stack,
    classify_stack,
    parse_frame,
)


class TestProfiles:
    def test_registry_covers_six_categories(self):
        categories = {p.category for p in DEFAULT_FLEET}
        for expected in (
            "Ads", "Cache", "Data Warehouse", "Feed", "Key-Value Store", "Web",
        ):
            assert expected in categories

    def test_mixes_validated(self):
        with pytest.raises(ValueError):
            ServiceProfile(
                "bad", "Web", 0.1, 0.5,
                {"zstd": 0.5},  # does not sum to 1
                0.5, {1: 1.0}, (1024, 1.0),
            )

    def test_level_mix_validated(self):
        with pytest.raises(ValueError):
            ServiceProfile(
                "bad", "Web", 0.1, 0.5, {"zstd": 1.0}, 0.5,
                {1: 0.5, 3: 0.2}, (1024, 1.0),
            )


class TestCallstacks:
    def test_compression_stack_has_api_frame(self):
        frames = build_stack("svc", "zstd", "compress", "match_finding")
        assert any(parse_frame(f) for f in frames)
        assert classify_stack(frames) == ("zstd", "compress")

    def test_non_compression_stack(self):
        frames = build_stack("svc")
        assert classify_stack(frames) is None

    def test_parse_frame_for_each_algorithm(self):
        assert parse_frame("ZSTD_decompress") == ("zstd", "decompress")
        assert parse_frame("LZ4_compress_default") == ("lz4", "compress")
        assert parse_frame("inflate") == ("zlib", "decompress")
        assert parse_frame("app::handle_request") is None


class TestProfilerAndCharacterization:
    @pytest.fixture(scope="class")
    def characterization(self):
        profiler = SamplingProfiler(samples_per_day=200_000, seed=13)
        return characterize(profiler.run(days=30))

    def test_total_compression_share_near_paper(self, characterization):
        """Section III-B: 4.6% of fleet cycles in (de)compression."""
        assert 0.040 <= characterization.compression_share <= 0.052

    def test_algorithm_split_near_paper(self, characterization):
        """zstd 3.9% / lz4 0.4% / zlib 0.3%."""
        shares = characterization.algorithm_shares
        assert shares["zstd"] == pytest.approx(0.039, abs=0.004)
        assert shares["lz4"] == pytest.approx(0.004, abs=0.002)
        assert shares["zlib"] == pytest.approx(0.003, abs=0.002)

    def test_zstd_dominates(self, characterization):
        shares = characterization.algorithm_shares
        assert shares["zstd"] > 5 * shares["lz4"]
        assert shares["zstd"] > 5 * shares["zlib"]

    def test_category_range_matches_fig2(self, characterization):
        """Fig. 2: category shares span ~1.8% to ~21.2%."""
        shares = {
            c: s
            for c, s in characterization.category_zstd_share.items()
            if c != "Infra"
        }
        assert max(shares.values()) == pytest.approx(0.212, abs=0.025)
        assert 0.012 <= min(shares.values()) <= 0.025

    def test_data_warehouse_is_heaviest(self, characterization):
        shares = characterization.category_zstd_share
        assert max(shares, key=shares.get) == "Data Warehouse"

    def test_decompression_dominates_most_categories(self, characterization):
        """Fig. 3: read-heavy services decompress more than they compress."""
        decompress_heavy = sum(
            1
            for c, (comp, decomp) in characterization.category_split.items()
            if decomp > comp and c != "Infra"
        )
        assert decompress_heavy >= 3

    def test_low_levels_carry_majority_of_cycles(self, characterization):
        """Fig. 4: levels 1-4 take more than half the level cycles."""
        assert characterization.low_level_share(4) > 0.5

    def test_level_usage_sums_to_one(self, characterization):
        assert sum(characterization.level_usage.values()) == pytest.approx(1.0)

    def test_block_sizes_span_orders_of_magnitude(self, characterization):
        """Fig. 5: sub-KB cache items to 256KB warehouse blocks."""
        medians = {}
        for service, sizes in characterization.block_sizes.items():
            if sizes:
                medians[service] = sorted(sizes)[len(sizes) // 2]
        if len(medians) >= 2:
            assert max(medians.values()) / max(1, min(medians.values())) > 50

    def test_deterministic_given_seed(self):
        a = characterize(SamplingProfiler(samples_per_day=50_000, seed=3).run(5))
        b = characterize(SamplingProfiler(samples_per_day=50_000, seed=3).run(5))
        assert a.algorithm_shares == b.algorithm_shares

    def test_feed_prefers_low_levels(self):
        """Section III-E: Feed's low-level share can exceed 80%."""
        feed_only = [p for p in DEFAULT_FLEET if p.category == "Feed"]
        profiler = SamplingProfiler(fleet=feed_only, samples_per_day=100_000)
        result = characterize(profiler.run(days=5))
        assert result.low_level_share(4) > 0.8

    def test_per_category_level_usage(self, characterization):
        """Fig. 4's per-category view: Feed > 80% at levels 1-4, while the
        warehouse (level-7 ingestion) sits far lower."""
        usage = characterization.category_level_usage
        for shares in usage.values():
            assert sum(shares.values()) == pytest.approx(1.0)

        def low_share(category):
            return sum(s for level, s in usage[category].items() if level <= 4)

        assert low_share("Feed") > 0.8
        assert low_share("Data Warehouse") < low_share("Feed")

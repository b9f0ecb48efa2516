"""Warehouse tests: ORC-like format round-trips and the DW1-4 workflows."""

import numpy as np
import pytest

from repro.codecs.base import CorruptDataError
from repro.corpus import generate_table
from repro.services import (
    IngestionJob,
    MLDataJob,
    OrcReader,
    OrcWriter,
    ShuffleJob,
    SparkJob,
)
from repro.services.warehouse.orc import decode_column, encode_column


def _tables_equal(a, b):
    assert set(a) == set(b)
    for name in a:
        if isinstance(a[name], list):
            assert a[name] == b[name], name
        else:
            assert np.array_equal(np.asarray(a[name]), np.asarray(b[name])), name


class TestColumnEncoders:
    def test_int_delta_roundtrip(self):
        values = np.array([100, 105, 103, 200, 150], dtype=np.int64)
        kind, payload = encode_column(values)
        assert np.array_equal(decode_column(kind, payload, 5), values)

    def test_negative_ints(self):
        values = np.array([-5, 10, -20, 0], dtype=np.int64)
        kind, payload = encode_column(values)
        assert np.array_equal(decode_column(kind, payload, 4), values)

    def test_float_roundtrip(self):
        values = np.array([1.5, -2.25, 0.0, 3e8])
        kind, payload = encode_column(values)
        assert np.array_equal(decode_column(kind, payload, 4), values)

    def test_bool_bitpack_roundtrip(self):
        values = np.array([True, False, True, True, False] * 7)
        kind, payload = encode_column(values)
        assert np.array_equal(decode_column(kind, payload, 35), values)
        assert len(payload) <= 5  # 35 bits -> 5 bytes

    def test_string_dictionary_roundtrip(self):
        values = ["click", "view", "click", "click", "share"]
        kind, payload = encode_column(values)
        assert decode_column(kind, payload, 5) == values

    def test_monotone_ints_encode_compactly(self):
        values = np.arange(1_000_000, 1_001_000, dtype=np.int64)
        __, payload = encode_column(values)
        assert len(payload) < 2100  # ~2 bytes per delta


class TestOrcFormat:
    def test_write_read_roundtrip(self):
        table = generate_table(500, seed=1)
        writer = OrcWriter(level=1)
        payload = writer.write(table)
        _tables_equal(OrcReader().read(payload), table)

    def test_compression_shrinks_file(self):
        table = generate_table(2000, seed=2)
        payload = OrcWriter(level=1).write(table)
        writer = OrcWriter(level=1)
        writer.write(table)
        assert writer.stats.compressed_bytes < writer.stats.encoded_bytes

    def test_higher_level_smaller_file(self):
        table = generate_table(2000, seed=3)
        low = OrcWriter(level=1)
        low.write(table)
        high = OrcWriter(level=7)
        high.write(table)
        assert high.stats.compressed_bytes <= low.stats.compressed_bytes

    def test_block_cap_enforced(self):
        with pytest.raises(ValueError):
            OrcWriter(block_size=1 << 20)

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptDataError):
            OrcReader().read(b"JUNKdata")

    def test_every_truncation_is_corrupt_data(self):
        # a cut inside a column name or right before its kind byte used
        # to read past the end as an IndexError
        table = {
            "id": np.arange(20, dtype=np.int64),
            "tag": ["a", "b", "a", "c"] * 5,
        }
        payload = OrcWriter(level=1).write(table)
        for cut in range(len(payload)):
            with pytest.raises(CorruptDataError):
                OrcReader().read(payload[:cut])

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            OrcWriter().write({})

    def test_unequal_row_counts_rejected(self):
        table = {"a": np.arange(5), "b": np.arange(6)}
        with pytest.raises(ValueError):
            OrcWriter().write(table)


class TestWorkflows:
    @pytest.fixture(scope="class")
    def ingested(self):
        table = generate_table(2500, seed=4)
        return IngestionJob().run(table)

    def test_ingestion_uses_level_7(self):
        assert IngestionJob().compression_level == 7

    def test_ingestion_report_compression_heavy(self, ingested):
        """DW1 spends ~28.5% of cycles in Zstd (Fig. 6)."""
        assert 0.18 < ingested.report.zstd_share < 0.40

    def test_ingestion_match_finding_dominates(self, ingested):
        """Fig. 7: level 7 compression is match-finding dominated."""
        assert ingested.report.match_finding_share_of_compression > 0.5

    def test_shuffle_splits_partitions(self, ingested):
        result = ShuffleJob().run(ingested.payload, partitions=4)
        assert len(result.partitions) == 4
        total_rows = 0
        for part in result.partitions:
            table = OrcReader().read(part)
            total_rows += len(next(iter(table.values())))
        assert total_rows == 2500

    def test_shuffle_compression_share(self, ingested):
        """DW2: ~22% compression + ~8% decompression (Fig. 7)."""
        report = ShuffleJob().run(ingested.payload).report
        assert 0.20 < report.zstd_share < 0.45
        assert report.compress_share > report.decompress_share

    def test_spark_is_decompression_heavy(self, ingested):
        """DW3 reads much more than it writes."""
        report = SparkJob().run(ingested.payload).report
        assert report.decompress_cycles > report.compress_cycles

    def test_ml_job_share_band(self, ingested):
        """DW4: ~8% of cycles in Zstd."""
        report = MLDataJob().run(ingested.payload).report
        assert 0.04 < report.zstd_share < 0.16

    def test_share_ordering_matches_paper(self, ingested):
        """Fig. 6 ordering: DW1/DW2 > DW3 > DW4."""
        dw1 = ingested.report.zstd_share
        dw2 = ShuffleJob().run(ingested.payload).report.zstd_share
        dw3 = SparkJob().run(ingested.payload).report.zstd_share
        dw4 = MLDataJob().run(ingested.payload).report.zstd_share
        assert min(dw1, dw2) > dw3 > dw4

    def test_low_level_entropy_heavier_than_high_level(self, ingested):
        """Fig. 7: match finding ~80% at level 7 vs ~30% at level 1."""
        dw1_mf = ingested.report.match_finding_share_of_compression
        dw4_mf = MLDataJob().run(ingested.payload).report.match_finding_share_of_compression
        assert dw1_mf > dw4_mf

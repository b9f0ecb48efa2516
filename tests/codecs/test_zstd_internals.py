"""Targeted tests for the Zstd-style codec's internal coding decisions."""

import pytest

from repro.codecs.base import CorruptDataError, StageCounters
from repro.codecs.entropy.fse import normalize_counts
from repro.codecs.zstd import blocks as zblocks
from repro.codecs.zstd import params as zparams
from repro.codecs.zstd.blocks import (
    _STREAM_CUSTOM,
    _STREAM_PREDEFINED,
    _STREAM_RLE,
    _choose_stream_mode,
    _read_custom_table,
    _write_custom_table,
)


#: row of the literal-length stream in ``zblocks._STREAM_SPECS``
_LL_STREAM = 0


class TestStreamModeChoice:
    def test_constant_stream_is_rle(self):
        mode, encoder = _choose_stream_mode([5] * 100, _LL_STREAM)
        assert mode == _STREAM_RLE
        assert encoder is None

    def test_small_stream_prefers_predefined(self):
        # A handful of sequences can't amortize a custom table header.
        codes = [0, 1, 2, 0, 1]
        mode, __ = _choose_stream_mode(codes, _LL_STREAM)
        assert mode == _STREAM_PREDEFINED

    def test_large_skewed_stream_prefers_custom(self):
        # Many sequences concentrated on codes the predefined table treats
        # as rare: a custom table pays for its header.
        codes = ([30, 31] * 500) + [2] * 40
        mode, encoder = _choose_stream_mode(codes, _LL_STREAM)
        assert mode == _STREAM_CUSTOM
        assert sum(encoder.normalized) == 1 << encoder.table_log

    def test_custom_table_header_roundtrip(self):
        norm = normalize_counts([10, 0, 30, 5], table_log=6)
        out = bytearray()
        _write_custom_table(out, norm, 6)
        decoded, table_log, pos = _read_custom_table(bytes(out), 0, alphabet=4)
        assert decoded == norm
        assert table_log == 6
        assert pos == len(out)

    def test_custom_table_rejects_bad_sum(self):
        out = bytearray()
        _write_custom_table(out, normalize_counts([1, 1], 5), 5)
        corrupted = bytearray(out)
        corrupted[2] ^= 0x01  # perturb a packed count
        with pytest.raises(CorruptDataError):
            _read_custom_table(bytes(corrupted), 0, alphabet=2)

    def test_custom_table_rejects_oversized_log(self):
        with pytest.raises(CorruptDataError):
            _read_custom_table(bytes([13, 0]), 0, alphabet=2)

    @pytest.mark.parametrize("table_log", [1, 3, 4])
    def test_custom_table_rejects_undersized_log(self, table_log):
        # well-formed and summing to the table size, but at 1 and 3 the
        # spread step is even and leaves states unassigned
        out = bytearray()
        _write_custom_table(out, [1 << table_log], table_log)
        with pytest.raises(CorruptDataError):
            _read_custom_table(bytes(out), 0, alphabet=2)


class TestBlockDecodeValidation:
    def _valid_block(self):
        from repro.codecs.lz77 import Token

        data = b"abcdabcdabcd"
        return zblocks.encode_block(
            data, 0, [Token(4, 8, 4)], StageCounters()
        ), data

    def test_valid_block_decodes(self):
        payload, data = self._valid_block()
        assert zblocks.decode_block(payload, StageCounters()) == data

    def test_unknown_literals_mode_rejected(self):
        payload, __ = self._valid_block()
        corrupted = bytes([9]) + payload[1:]
        with pytest.raises(CorruptDataError):
            zblocks.decode_block(corrupted, StageCounters())

    def test_oversized_literals_claim_rejected(self):
        out = bytearray([0])  # raw literals mode
        from repro.codecs.varint import write_uvarint

        write_uvarint(out, zparams.MAX_BLOCK_SIZE + 1)
        with pytest.raises(CorruptDataError):
            zblocks.decode_block(bytes(out), StageCounters())

    def test_sequence_count_limit(self):
        out = bytearray([0])  # raw literals, size 0
        from repro.codecs.varint import write_uvarint

        write_uvarint(out, 0)
        write_uvarint(out, zparams.MAX_BLOCK_SIZE + 1)  # absurd seq count
        with pytest.raises(CorruptDataError):
            zblocks.decode_block(bytes(out), StageCounters())


class TestNormalizeExcessRecovery:
    def test_overshoot_is_reclaimed_from_richest(self):
        # Many tiny counts forced up to 1 overshoot the table; the richest
        # symbol gives the excess back.
        counts = [1000] + [1] * 31
        norm = normalize_counts(counts, table_log=5)
        assert sum(norm) == 32
        assert all(n >= 1 for n in norm)
        assert norm[0] == max(norm)

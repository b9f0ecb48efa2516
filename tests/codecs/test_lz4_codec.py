"""LZ4 codec and block-format tests."""

import pytest

from repro.codecs import CodecError, CorruptDataError, LZ4Compressor
from repro.codecs.base import StageCounters
from repro.codecs.lz4 import block as lz4block

class TestBlockFormat:
    def _roundtrip_tokens(self, data, sequences):
        counters = StageCounters()
        payload = lz4block.encode_block(data, 0, sequences, counters)
        return lz4block.decode_block(payload, StageCounters())

    def test_literals_only_block(self):
        assert self._roundtrip_tokens(b"abc", ([3], [0], [0])) == b"abc"

    def test_long_literal_run_extension(self):
        data = bytes(range(256)) * 2  # 512 literals -> 15 + extensions
        assert self._roundtrip_tokens(data, ([len(data)], [0], [0])) == data

    def test_match_token(self):
        data = b"abcdabcd"
        assert self._roundtrip_tokens(data, ([4], [4], [4])) == data

    def test_long_match_extension(self):
        data = b"ab" + b"ab" * 300
        assert self._roundtrip_tokens(data, ([2], [600], [2])) == data

    def test_match_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            lz4block.encode_block(b"abcab", 0, ([3], [2], [3]), StageCounters())

    def test_offset_above_format_limit_rejected(self):
        with pytest.raises(ValueError):
            lz4block.encode_block(b"x" * 8, 0, ([0], [8], [70000]), StageCounters())

    def test_decode_zero_offset_rejected(self):
        # token: 0 literals, match; offset bytes 00 00
        payload = bytes([0x00, 0x00, 0x00])
        with pytest.raises(CorruptDataError):
            lz4block.decode_block(payload, StageCounters())

    def test_decode_truncated_literals_rejected(self):
        payload = bytes([0x50]) + b"ab"  # claims 5 literals, has 2
        with pytest.raises(CorruptDataError):
            lz4block.decode_block(payload, StageCounters())

    def test_decode_offset_past_start_rejected(self):
        # 1 literal 'a', then match with offset 5
        payload = bytes([0x10]) + b"a" + (5).to_bytes(2, "little")
        with pytest.raises(CorruptDataError):
            lz4block.decode_block(payload, StageCounters())


class TestLZ4Compressor:
    def test_roundtrip_all_levels(self, lz4, payloads):
        for name, data in payloads.items():
            for level in (1, 2, 3, 6, 9, 12):
                result = lz4.compress(data, level)
                assert lz4.decompress(result.data).data == data, (name, level)

    def test_level_range_enforced(self, lz4):
        with pytest.raises(CodecError):
            lz4.compress(b"x", 0)
        with pytest.raises(CodecError):
            lz4.compress(b"x", 13)

    def test_no_dictionary_support(self, lz4):
        with pytest.raises(CodecError):
            lz4.compress(b"x" * 100, 1, dictionary=b"history")

    def test_incompressible_data_stored_near_raw(self, lz4, payloads):
        result = lz4.compress(payloads["random"], 1)
        # raw block + frame overhead only
        assert len(result.data) <= len(payloads["random"]) + 32

    def test_compressible_data_shrinks(self, lz4, payloads):
        result = lz4.compress(payloads["periodic"], 1)
        assert result.ratio > 10

    def test_hc_levels_compress_better(self, lz4, payloads):
        data = payloads["structured"]
        fast = lz4.compress(data, 1)
        hc = lz4.compress(data, 9)
        assert len(hc.data) <= len(fast.data)

    def test_checksum_detects_corruption(self, lz4, payloads):
        result = lz4.compress(payloads["text"], 1)
        corrupted = bytearray(result.data)
        corrupted[len(corrupted) // 2] ^= 0xFF
        with pytest.raises(CorruptDataError):
            lz4.decompress(bytes(corrupted))

    def test_bad_magic_rejected(self, lz4):
        with pytest.raises(CorruptDataError):
            lz4.decompress(b"XXXX" + b"\x00" * 20)

    def test_truncated_frame_rejected(self, lz4, payloads):
        result = lz4.compress(payloads["text"], 1)
        with pytest.raises(CorruptDataError):
            lz4.decompress(result.data[:10])

    def test_counters_track_io_sizes(self, lz4, payloads):
        data = payloads["structured"]
        result = lz4.compress(data, 1)
        assert result.counters.bytes_in == len(data)
        assert result.counters.bytes_out == len(result.data)

    def test_no_entropy_table_builds(self, lz4, payloads):
        # LZ4 has no entropy stage: the paper's "emits uncompressed literals"
        result = lz4.compress(payloads["text"], 6)
        assert result.counters.table_builds == 0

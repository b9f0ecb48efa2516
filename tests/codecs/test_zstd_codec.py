"""Zstd-style codec tests: frame, blocks, levels, dictionaries."""

import pytest

from repro.codecs import CodecError, CorruptDataError, ZstdCompressor
from repro.codecs.base import StageCounters
from repro.codecs.zstd import blocks as zblocks
from repro.codecs.zstd import params as zparams

class TestSequenceCodeTables:
    def test_ll_codes_direct_below_16(self):
        for value in range(16):
            assert zparams.ll_code(value) == value

    def test_ll_code_boundaries(self):
        assert zparams.ll_code(16) == 16
        assert zparams.ll_code(17) == 16
        assert zparams.ll_code(18) == 17
        assert zparams.ll_code(65536) == 35
        assert zparams.ll_code(131071) == 35

    def test_ll_roundtrip_via_baseline_extra(self):
        for value in [0, 15, 16, 17, 31, 47, 64, 127, 1000, 65535, 131071]:
            code = zparams.ll_code(value)
            baseline, bits = zparams.LL_TABLE[code]
            assert baseline <= value < baseline + (1 << bits) + (bits == 0)

    def test_ml_code_minimum(self):
        assert zparams.ml_code(3) == 0
        assert zparams.ml_code(34) == 31
        assert zparams.ml_code(35) == 32

    def test_ml_code_below_min_match_rejected(self):
        with pytest.raises(ValueError):
            zparams.ml_code(2)

    def test_ml_roundtrip_via_baseline_extra(self):
        for value in [3, 10, 34, 35, 36, 37, 100, 513, 65538, 131072]:
            code = zparams.ml_code(value)
            baseline, bits = zparams.ML_TABLE[code]
            assert baseline <= value < baseline + (1 << bits) + (bits == 0)

    def test_of_code_is_log2(self):
        offsets = [1, 2, 3, 4, 65536]
        __, of_codes, __ = zblocks._sequence_codes(([0] * 5, [3] * 5, offsets), 5)
        assert of_codes == [0, 1, 1, 2, 16]

    def test_of_code_zero_rejected(self):
        with pytest.raises(ValueError):
            zblocks.encode_block(bytes(5), 0, ([1], [4], [0]), StageCounters())

    def test_encoder_codes_equal_the_code_functions_everywhere(self):
        # every length a block can hold: the tables below 64 / 131 and the
        # bit-length rule past them must both agree with the functions
        lengths = range(zparams.MAX_BLOCK_SIZE + 1)
        matches = [max(length, zparams.MIN_MATCH) for length in lengths]
        offsets = [max(length, 1) for length in lengths]
        ll_codes, of_codes, ml_codes = zblocks._sequence_codes(
            (list(lengths), matches, offsets), len(lengths)
        )
        assert ll_codes == [zparams.ll_code(length) for length in lengths]
        assert ml_codes == [zparams.ml_code(length) for length in matches]
        # an offset's code is the largest whose baseline does not exceed it
        for offset, code in zip(offsets, of_codes):
            baseline, bits = zparams.OF_TABLE[code]
            assert baseline <= offset < baseline + (1 << bits)

    def test_encoder_codes_past_the_block_size(self):
        # the longest literal run and match the code tables can state
        longest_ll = zparams.LL_TABLE[-1][0] + (1 << zparams.LL_TABLE[-1][1]) - 1
        longest_ml = zblocks._MAX_MATCH
        ll_codes, __, ml_codes = zblocks._sequence_codes(
            ([longest_ll], [longest_ml], [1]), 1
        )
        assert ll_codes == [zparams.ll_code(longest_ll)] == [35]
        assert ml_codes == [zparams.ml_code(longest_ml)] == [52]

    def test_predefined_norms_sum_to_table_size(self):
        assert sum(zparams.PREDEFINED_LL_NORM) == 1 << zparams.PREDEFINED_LL_LOG
        assert sum(zparams.PREDEFINED_ML_NORM) == 1 << zparams.PREDEFINED_ML_LOG
        assert sum(zparams.PREDEFINED_OF_NORM) == 1 << zparams.PREDEFINED_OF_LOG


class TestBlockCoding:
    def _roundtrip(self, data, sequences):
        counters = StageCounters()
        payload = zblocks.encode_block(data, 0, sequences, counters)
        return zblocks.decode_block(payload, StageCounters())

    def test_literals_only(self):
        assert self._roundtrip(b"plain literals", ([14], [0], [0])) == b"plain literals"

    def test_single_sequence(self):
        data = b"abcdabcd"
        assert self._roundtrip(data, ([4], [4], [4])) == data

    def test_rle_literals_mode(self):
        data = b"a" * 300 + b"a" * 20
        payload = zblocks.encode_block(data, 0, ([320], [0], [0]), StageCounters())
        # RLE literal header: mode byte + varint + 1 byte, well under raw
        assert len(payload) < 20
        assert zblocks.decode_block(payload, StageCounters()) == data

    def test_huffman_literals_mode(self):
        data = (b"abcdefgh" * 64) + bytes(range(64))
        sequences = ([len(data)], [0], [0])
        counters = StageCounters()
        payload = zblocks.encode_block(data, 0, sequences, counters)
        assert counters.entropy_symbols >= len(data)
        assert zblocks.decode_block(payload, StageCounters()) == data

    def test_many_sequences_use_fse(self):
        piece = b"0123456789abcdef"
        data = piece + b"".join(
            piece[: 4 + (i % 10)] for i in range(100)
        )
        from repro.codecs.matchfinders import HashChainMatchFinder, MatchFinderParams

        sequences = HashChainMatchFinder().parse(
            data, 0, MatchFinderParams(strategy="greedy", min_match=4)
        )
        counters = StageCounters()
        payload = zblocks.encode_block(data, 0, sequences, counters)
        assert zblocks.decode_block(payload, StageCounters()) == data

    def test_trailing_bytes_rejected(self):
        payload = zblocks.encode_block(b"abc", 0, ([3], [0], [0]), StageCounters())
        with pytest.raises(CorruptDataError):
            zblocks.decode_block(payload + b"\x00", StageCounters())

    def test_history_offsets_decode(self):
        history = b"0123456789"
        data = history + b"0123456789"
        sequences = ([0], [10], [10])
        payload = zblocks.encode_block(data, len(history), sequences, StageCounters())
        out = zblocks.decode_block(payload, StageCounters(), history=history)
        assert out == b"0123456789"


class TestZstdCompressor:
    def test_roundtrip_representative_levels(self, zstd, payloads):
        for name, data in payloads.items():
            for level in (-5, -1, 1, 3, 6, 9, 13, 19):
                result = zstd.compress(data, level)
                assert zstd.decompress(result.data).data == data, (name, level)

    def test_level_range(self, zstd):
        with pytest.raises(CodecError):
            zstd.compress(b"x", -6)
        with pytest.raises(CodecError):
            zstd.compress(b"x", 23)

    def test_higher_levels_do_not_regress_much(self, zstd, payloads):
        data = payloads["structured"]
        low = zstd.compress(data, 1)
        high = zstd.compress(data, 12)
        assert len(high.data) <= len(low.data) * 1.02

    def test_negative_levels_scan_less(self, zstd, payloads):
        data = payloads["text"] * 4
        normal = zstd.compress(data, 1)
        turbo = zstd.compress(data, -5)
        assert (
            turbo.counters.positions_scanned < normal.counters.positions_scanned
        )

    def test_rle_block_for_constant_input(self, zstd):
        result = zstd.compress(b"z" * 100000, 3)
        assert len(result.data) < 64
        assert zstd.decompress(result.data).data == b"z" * 100000

    def test_multi_block_input(self, zstd):
        data = bytes(
            (i * 31 + (i >> 8)) & 0xFF for i in range(zparams.MAX_BLOCK_SIZE + 5000)
        )
        result = zstd.compress(data, 1)
        assert zstd.decompress(result.data).data == data

    def test_checksum_detects_corruption(self, zstd, payloads):
        result = zstd.compress(payloads["text"], 3)
        corrupted = bytearray(result.data)
        corrupted[-1] ^= 0x01  # flip checksum byte
        with pytest.raises(CorruptDataError):
            zstd.decompress(bytes(corrupted))

    def test_bad_magic(self, zstd):
        with pytest.raises(CorruptDataError):
            zstd.decompress(b"NOPE" + b"\x00" * 32)

    def test_content_size_in_frame(self, zstd, payloads):
        data = payloads["text"]
        result = zstd.compress(data, 1)
        stored = int.from_bytes(result.data[6:14], "little")
        assert stored == len(data)

    def test_small_input_shrinks_tables(self, zstd):
        small = zstd.params_for_level(3, input_size=1024)
        large = zstd.params_for_level(3, input_size=1 << 20)
        assert small.hash_log < large.hash_log
        assert small.window_log <= large.window_log

    def test_match_finding_counters_grow_with_level(self, zstd, payloads):
        data = payloads["structured"]
        low = zstd.compress(data, 1)
        high = zstd.compress(data, 9)
        assert high.counters.match_candidates > low.counters.match_candidates


class TestZstdDictionary:
    def test_dictionary_roundtrip(self, zstd):
        dictionary = b"common prefix material: user_id country status score "
        data = b"user_id=5;country=US;status=ok;score=9"
        result = zstd.compress(data, 3, dictionary=dictionary)
        restored = zstd.decompress(result.data, dictionary=dictionary)
        assert restored.data == data

    def test_dictionary_improves_small_item_ratio(self, zstd):
        dictionary = (
            b'{"user_id": 0, "country": "US", "status": "active", "score": 0}'
        ) * 4
        item = b'{"user_id": 4217, "country": "US", "status": "active", "score": 77}'
        plain = zstd.compress(item, 3)
        with_dict = zstd.compress(item, 3, dictionary=dictionary)
        assert len(with_dict.data) < len(plain.data)

    def test_missing_dictionary_rejected(self, zstd):
        dictionary = b"shared history " * 10
        result = zstd.compress(b"shared history again", 3, dictionary=dictionary)
        with pytest.raises(CorruptDataError):
            zstd.decompress(result.data)

    def test_wrong_dictionary_rejected(self, zstd):
        dictionary = b"shared history " * 10
        result = zstd.compress(b"shared history again", 3, dictionary=dictionary)
        with pytest.raises(CorruptDataError):
            zstd.decompress(result.data, dictionary=b"a different dictionary")

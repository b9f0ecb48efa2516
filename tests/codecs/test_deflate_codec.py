"""DEFLATE/zlib codec tests, including stdlib interop both directions."""

import zlib as stdlib_zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs import CodecError, CorruptDataError, ZlibCompressor
from repro.codecs.base import StageCounters
from repro.codecs.deflate import tables as dtables
from repro.codecs.deflate.deflate import _match_codes, _rle_code_lengths


class TestLengthDistanceTables:
    def test_length_code_boundaries(self):
        assert dtables.length_code(3) == 257
        assert dtables.length_code(10) == 264
        assert dtables.length_code(11) == 265
        assert dtables.length_code(12) == 265
        assert dtables.length_code(258) == 285

    def test_length_code_range_check(self):
        with pytest.raises(ValueError):
            dtables.length_code(2)
        with pytest.raises(ValueError):
            dtables.length_code(259)

    def test_length_roundtrip(self):
        for length in range(3, 259):
            code = dtables.length_code(length)
            base, bits = dtables.LENGTH_TABLE[code - 257]
            assert base <= length < base + (1 << bits) + (bits == 0 and code == 285)

    def test_distance_code_boundaries(self):
        assert dtables.distance_code(1) == 0
        assert dtables.distance_code(4) == 3
        assert dtables.distance_code(5) == 4
        assert dtables.distance_code(32768) == 29

    def test_distance_roundtrip(self):
        for distance in [1, 2, 5, 24, 100, 1000, 5000, 32768]:
            code = dtables.distance_code(distance)
            base, bits = dtables.DISTANCE_TABLE[code]
            assert base <= distance < base + (1 << bits) + (bits == 0)

    def test_encoder_codes_equal_the_code_functions_everywhere(self):
        # every distance 1..32768, and beside it every length 3..258 in turn
        distances = range(1, dtables.MAX_DISTANCE + 1)
        lengths = [dtables.MIN_MATCH + d % 256 for d in distances]
        length_codes, distance_codes = _match_codes(
            (list(distances), lengths, list(distances)), len(lengths)
        )
        assert [257 + code for code in length_codes] == [
            dtables.length_code(length) for length in lengths
        ]
        assert distance_codes == [dtables.distance_code(d) for d in distances]
        assert set(lengths) == set(range(dtables.MIN_MATCH, dtables.MAX_MATCH + 1))

    def test_fixed_tree_shape(self):
        lit = dtables.fixed_literal_lengths()
        assert len(lit) == 288
        assert lit[0] == 8 and lit[144] == 9 and lit[256] == 7 and lit[280] == 8
        assert dtables.fixed_distance_lengths() == [5] * 30


class TestCodeLengthRLE:
    def _expand(self, items):
        out = []
        for symbol, extra, __ in items:
            if symbol < 16:
                out.append(symbol)
            elif symbol == 16:
                out.extend([out[-1]] * (extra + 3))
            elif symbol == 17:
                out.extend([0] * (extra + 3))
            else:
                out.extend([0] * (extra + 11))
        return out

    @pytest.mark.parametrize(
        "lengths",
        [
            [5, 5, 5, 5, 5, 5, 5, 5],
            [0] * 138,
            [0] * 200,
            [3] + [0] * 9 + [3],
            [7, 7, 0, 0, 0, 8, 8, 8, 8, 8, 8, 8],
            [1],
            [0, 0],
        ],
    )
    def test_rle_expands_back(self, lengths):
        assert self._expand(_rle_code_lengths(lengths)) == lengths

    def test_rle_compresses_long_zero_runs(self):
        items = _rle_code_lengths([0] * 138)
        assert len(items) == 1
        assert items[0][0] == 18


class TestZlibCompressor:
    def test_roundtrip_all_levels(self, zlib_codec, payloads):
        for name, data in payloads.items():
            for level in range(0, 10):
                result = zlib_codec.compress(data, level)
                assert zlib_codec.decompress(result.data).data == data, (name, level)

    def test_our_output_decodable_by_stdlib(self, zlib_codec, payloads):
        for name, data in payloads.items():
            for level in (0, 1, 5, 6, 9):
                result = zlib_codec.compress(data, level)
                assert stdlib_zlib.decompress(result.data) == data, (name, level)

    def test_stdlib_output_decodable_by_us(self, zlib_codec, payloads):
        for name, data in payloads.items():
            for level in (1, 6, 9):
                reference = stdlib_zlib.compress(data, level)
                assert zlib_codec.decompress(reference).data == data, (name, level)

    def test_level0_is_stored(self, zlib_codec, payloads):
        data = payloads["text"]
        result = zlib_codec.compress(data, 0)
        assert len(result.data) >= len(data)

    def test_level_range(self, zlib_codec):
        with pytest.raises(CodecError):
            zlib_codec.compress(b"x", 10)

    def test_adler_mismatch_detected(self, zlib_codec, payloads):
        result = zlib_codec.compress(payloads["text"], 6)
        corrupted = result.data[:-1] + bytes([result.data[-1] ^ 1])
        with pytest.raises(CorruptDataError):
            zlib_codec.decompress(corrupted)

    def test_bad_header_check_detected(self, zlib_codec):
        with pytest.raises(CorruptDataError):
            zlib_codec.decompress(b"\x78\x00" + b"\x00" * 10)

    def test_preset_dictionary_flag_rejected(self, zlib_codec):
        header = bytes([0x78, ((0x78 * 256 + 0x20) % 31 and 0) or 0])
        # construct a header with FDICT set and valid check
        cmf = 0x78
        flg = 0x20
        rem = (cmf * 256 + flg) % 31
        if rem:
            flg += 31 - rem
        with pytest.raises(CorruptDataError):
            zlib_codec.decompress(bytes([cmf, flg]) + b"\x00" * 10)

    def test_higher_level_not_meaningfully_worse(self, zlib_codec, payloads):
        # The paper notes level "bets" can occasionally lose (Section IV-C);
        # allow 2% slack for per-input inversions.
        data = payloads["structured"]
        l1 = zlib_codec.compress(data, 1)
        l9 = zlib_codec.compress(data, 9)
        assert len(l9.data) <= len(l1.data) * 1.02

    def test_comparable_to_stdlib_ratio(self, zlib_codec, payloads):
        # Our deflate should land within 15% of stdlib zlib at level 6.
        data = payloads["structured"] * 4
        ours = len(zlib_codec.compress(data, 6).data)
        theirs = len(stdlib_zlib.compress(data, 6))
        assert ours <= theirs * 1.15


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=3000))
def test_interop_property(data):
    codec = ZlibCompressor()
    ours = codec.compress(data, 6).data
    assert stdlib_zlib.decompress(ours) == data
    theirs = stdlib_zlib.compress(data, 6)
    assert codec.decompress(theirs).data == data

"""LZ77 sequence model tests."""

import pytest

from repro.codecs.base import StageCounters
from repro.codecs.deflate import deflate as denc
from repro.codecs.lz4 import block as lz4block
from repro.codecs.lz77 import check_sequences, copy_match, literal_bytes, match_length
from repro.codecs.zstd import blocks as zblocks

from lz77_oracle import reconstruct, tokens_cover, validate_parse


class TestToken:
    """A token is entry ``k`` of the three lists a parse is made of."""

    def test_valid_match_token(self):
        assert check_sequences(([3], [10], [7]), 13, 4, 258, 32768) == 1

    def test_literal_only_token(self):
        # a trailing literal-only entry is not a match
        assert check_sequences(([5], [0], [0]), 5, 4, 258, 32768) == 0
        assert check_sequences(([2, 5], [4, 0], [1, 0]), 11, 4, 258, 32768) == 1

    def test_negative_literal_rejected(self):
        with pytest.raises(ValueError):
            check_sequences(([-1], [0], [0]), -1, 4, 258, 32768)

    def test_match_with_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            check_sequences(([0], [4], [0]), 4, 4, 258, 32768)

    def test_lists_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            check_sequences(([0, 1], [4], [1]), 5, 4, 258, 32768)

    def test_a_parse_covers_exactly_its_bytes(self):
        assert check_sequences(([], [], []), 0, 4, 258, 32768) == 0
        for size in (12, 14):
            with pytest.raises(ValueError, match="covers 13 bytes"):
                check_sequences(([3], [10], [7]), size, 4, 258, 32768)

    def test_tokens_cover(self):
        sequences = ([2, 0, 3], [5, 4, 0], [1, 3, 0])
        assert tokens_cover(sequences) == 2 + 5 + 4 + 3

    def test_literal_bytes_skip_the_matches(self):
        data = b"xxab" + b"abab" + b"cd"
        assert literal_bytes(data, 2, ([2, 2], [4, 0], [2, 0])) == b"abcd"


#: encoder -> (encode(data, sequences), shortest match, farthest offset)
ENCODERS = {
    "zstd": (
        lambda data, sequences: zblocks.encode_block(data, 0, sequences, StageCounters()),
        3,
        (1 << 27) - 1,
    ),
    "lz4": (
        lambda data, sequences: lz4block.encode_block(data, 0, sequences, StageCounters()),
        4,
        65535,
    ),
    "deflate": (
        lambda data, sequences: denc.encode_stream(data, 0, sequences, StageCounters(), 6),
        3,
        32768,
    ),
}


@pytest.mark.parametrize("name", sorted(ENCODERS))
class TestEncoderRejects:
    """Each encoder checks a parse once per block, before it codes any of it."""

    def _encode(self, name, sequences, extra=0):
        """Encode ``sequences`` over as many bytes as they cover, plus
        ``extra`` (negative: fewer)."""
        encode, __, __ = ENCODERS[name]
        return encode(bytes(max(0, tokens_cover(sequences)) + extra), sequences)

    def test_a_valid_parse_is_coded(self, name):
        assert self._encode(name, ([1, 2], [8, 0], [1, 0]))

    def test_negative_literal_length(self, name):
        with pytest.raises(ValueError):
            self._encode(name, ([1, -1], [8, 0], [1, 0]))

    def test_match_shorter_than_the_minimum(self, name):
        __, shortest, __ = ENCODERS[name]
        with pytest.raises(ValueError):
            self._encode(name, ([1, 0], [8, shortest - 1], [1, 1]))
        with pytest.raises(ValueError):
            self._encode(name, ([1], [-4], [1]))

    def test_offset_zero(self, name):
        with pytest.raises(ValueError):
            self._encode(name, ([1, 0], [8, 8], [1, 0]))

    def test_offset_beyond_the_format(self, name):
        __, __, farthest = ENCODERS[name]
        assert self._encode(name, ([1], [8], [farthest]))
        with pytest.raises(ValueError):
            self._encode(name, ([1], [8], [farthest + 1]))

    def test_literal_only_entry_before_the_end(self, name):
        with pytest.raises(ValueError):
            self._encode(name, ([1, 2, 1], [8, 0, 8], [1, 0, 1]))

    def test_lists_of_unequal_length(self, name):
        with pytest.raises(ValueError):
            self._encode(name, ([1, 2], [8], [1]))

    def test_a_parse_that_covers_too_few_or_too_many_bytes(self, name):
        parse = ([1, 2], [8, 0], [1, 0])
        for extra in (1, -1):
            with pytest.raises(ValueError, match="covers 11 bytes"):
                self._encode(name, parse, extra)


def test_deflate_rejects_a_match_longer_than_258():
    encode, __, __ = ENCODERS["deflate"]
    assert encode(bytes(300), ([1, 41], [258, 0], [1, 0]))
    with pytest.raises(ValueError):
        encode(bytes(300), ([1], [259], [1]))


class TestMatchLength:
    def test_no_match(self):
        assert match_length(b"ab", 0, 1, 1) == 0

    def test_exact_run(self):
        data = b"abcabc"
        assert match_length(data, 0, 3, 3) == 3

    def test_limit_caps_result(self):
        data = b"aaaaaaaaaa"
        assert match_length(data, 0, 1, 4) == 4

    def test_overlapping_periodic_run(self):
        # offset-1 self-referential run: every byte matches
        data = b"a" * 1000
        assert match_length(data, 0, 1, 999) == 999

    def test_long_match_chunked_path(self):
        data = (b"0123456789abcdef" * 40) * 2
        half = len(data) // 2
        assert match_length(data, 0, half, half) == half

    def test_mismatch_in_chunk_interior(self):
        block = b"x" * 100
        data = block + block[:50] + b"Y" + block[51:]
        assert match_length(data, 0, 100, 100) == 50


class TestCopyMatch:
    def test_non_overlapping_copy(self):
        out = bytearray(b"hello world")
        copy_match(out, offset=5, length=5)
        assert out == b"hello worldworld"

    def test_overlapping_rle_copy(self):
        out = bytearray(b"ab")
        copy_match(out, offset=1, length=6)
        assert out == b"abbbbbbb"

    def test_overlapping_periodic_copy(self):
        out = bytearray(b"xyz")
        copy_match(out, offset=3, length=7)
        assert out == b"xyzxyzxyzx"

    def test_offset_past_start_rejected(self):
        with pytest.raises(ValueError):
            copy_match(bytearray(b"ab"), offset=3, length=1)

    @pytest.mark.parametrize("offset", [0, -1, -3])
    def test_non_positive_offset_rejected(self, offset):
        # offset 0 used to double an empty chunk forever
        out = bytearray(b"abc")
        with pytest.raises(ValueError):
            copy_match(out, offset=offset, length=5)
        assert out == b"abc"

    def test_overlap_matches_byte_by_byte_copy(self):
        for offset in range(1, 9):
            for length in range(0, 40):
                out = bytearray(b"abcdefgh")
                expected = bytearray(out)
                for __ in range(length):
                    expected.append(expected[-offset])
                copy_match(out, offset=offset, length=length)
                assert out == expected, (offset, length)


class TestReconstructAndValidate:
    def test_reconstruct_literals_only(self):
        assert reconstruct(([3], [0], [0]), b"abc") == b"abc"

    def test_reconstruct_with_match(self):
        sequences = ([3, 0], [3, 0], [3, 0])
        assert reconstruct(sequences, b"abc") == b"abcabc"

    def test_validate_accepts_correct_parse(self):
        data = b"abcabcabc"
        validate_parse(([3], [6], [3]), data)

    def test_validate_rejects_wrong_offset(self):
        data = b"abcdefabc"
        sequences = ([6], [3], [5])  # wrong offset (should be 6)
        with pytest.raises(ValueError):
            validate_parse(sequences, data)

    def test_validate_rejects_short_coverage(self):
        with pytest.raises(ValueError):
            validate_parse(([3], [0], [0]), b"abcdef")

    def test_validate_with_history_prefix(self):
        history = b"shared-dictionary-"
        data = history + b"shared"
        validate_parse(([0], [6], [len(history)]), data, history_length=len(history))

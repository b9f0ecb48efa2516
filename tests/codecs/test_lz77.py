"""LZ77 token model tests."""

from dataclasses import FrozenInstanceError

import pytest

from repro.codecs.lz77 import Token, copy_match, match_length

from lz77_oracle import reconstruct, tokens_cover, validate_parse


class TestToken:
    def test_valid_match_token(self):
        token = Token(3, 10, 7)
        assert token.literal_length == 3

    def test_literal_only_token(self):
        assert Token(5, 0, 0).match_length == 0

    def test_negative_literal_rejected(self):
        with pytest.raises(ValueError):
            Token(-1, 0, 0)

    def test_match_with_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            Token(0, 4, 0)

    def test_token_is_slotted_and_frozen(self):
        # a parse holds one Token per sequence: no per-instance __dict__
        token = Token(3, 10, 7)
        assert not hasattr(token, "__dict__")
        with pytest.raises(FrozenInstanceError):
            token.offset = 8

    def test_tokens_cover(self):
        tokens = [Token(2, 5, 1), Token(0, 4, 3), Token(3, 0, 0)]
        assert tokens_cover(tokens) == 2 + 5 + 4 + 3


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
        assert reconstruct([Token(3, 0, 0)], b"abc") == b"abc"

    def test_reconstruct_with_match(self):
        tokens = [Token(3, 3, 3), Token(0, 0, 0)]
        assert reconstruct(tokens, b"abc") == b"abcabc"

    def test_validate_accepts_correct_parse(self):
        data = b"abcabcabc"
        tokens = [Token(3, 6, 3)]
        validate_parse(tokens, data)

    def test_validate_rejects_wrong_offset(self):
        data = b"abcdefabc"
        tokens = [Token(6, 3, 5)]  # wrong offset (should be 6)
        with pytest.raises(ValueError):
            validate_parse(tokens, data)

    def test_validate_rejects_short_coverage(self):
        with pytest.raises(ValueError):
            validate_parse([Token(3, 0, 0)], b"abcdef")

    def test_validate_with_history_prefix(self):
        history = b"shared-dictionary-"
        data = history + b"shared"
        tokens = [Token(0, 6, len(history))]
        validate_parse(tokens, data, history_length=len(history))

"""Canonical length-limited Huffman coding tests."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs.entropy.bitio import BitReader, BitWriter
from repro.codecs.entropy.huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    build_code_lengths,
    canonical_codes,
)


class TestBuildCodeLengths:
    def test_empty_histogram(self):
        assert build_code_lengths([0, 0, 0], max_bits=4) == [0, 0, 0]

    def test_single_symbol_gets_one_bit(self):
        assert build_code_lengths([0, 5, 0], max_bits=4) == [0, 1, 0]

    def test_two_equal_symbols(self):
        assert build_code_lengths([3, 3], max_bits=4) == [1, 1]

    def test_kraft_equality_for_multi_symbol(self):
        lengths = build_code_lengths([50, 30, 10, 5, 3, 2], max_bits=15)
        assert sum(2 ** -l for l in lengths if l) == pytest.approx(1.0)

    def test_respects_max_bits_under_pressure(self):
        # Fibonacci-like weights force deep unlimited trees.
        freqs = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
        for max_bits in (4, 5, 7):
            lengths = build_code_lengths(freqs, max_bits=max_bits)
            assert max(lengths) <= max_bits
            assert sum(2 ** -l for l in lengths if l) <= 1.0 + 1e-12

    def test_max_bits_binding_still_complete(self):
        # Regression for the off-by-one package-merge bug: constrained codes
        # must stay within max_bits AND remain decodable (Kraft <= 1).
        freqs = [2, 0, 0, 1, 8, 6, 8, 9, 109, 107, 1, 1, 1, 1, 2, 0, 12, 0, 0]
        lengths = build_code_lengths(freqs, max_bits=7)
        assert max(lengths) <= 7
        assert sum(2 ** -l for l in lengths if l) == pytest.approx(1.0)

    def test_too_many_symbols_for_width_rejected(self):
        with pytest.raises(ValueError):
            build_code_lengths([1] * 5, max_bits=2)

    def test_more_frequent_symbols_get_shorter_codes(self):
        lengths = build_code_lengths([100, 1, 1, 1], max_bits=15)
        assert lengths[0] <= min(lengths[1:])

    def test_optimality_matches_entropy_within_one_bit(self):
        freqs = [60, 25, 10, 5]
        total = sum(freqs)
        lengths = build_code_lengths(freqs, max_bits=15)
        avg = sum(f * l for f, l in zip(freqs, lengths)) / total
        entropy = -sum(f / total * math.log2(f / total) for f in freqs)
        assert entropy <= avg < entropy + 1.0


class TestCanonicalCodes:
    def test_codes_are_prefix_free(self):
        lengths = build_code_lengths([10, 7, 5, 3, 2, 1], max_bits=8)
        codes = canonical_codes(lengths)
        seen = set()
        for symbol, length in enumerate(lengths):
            if not length:
                continue
            # reconstruct the un-reversed canonical code as a bit string
            bits = format(codes[symbol], f"0{length}b")[::-1]
            for other in seen:
                assert not bits.startswith(other) and not other.startswith(bits)
            seen.add(bits)

    def test_all_zero_lengths(self):
        assert canonical_codes([0, 0]) == [0, 0]

    def test_lengths_above_sixteen_bits_rejected(self):
        with pytest.raises(ValueError):
            canonical_codes([17, 1])

    @pytest.mark.parametrize("lengths", [[1, 1, 1], [1, 2, 2, 2], [15] * 286 + [1, 1]])
    def test_over_subscribed_lengths_rejected(self, lengths):
        # more codewords of some length than the prefix code has left
        with pytest.raises(ValueError):
            canonical_codes(lengths)
        with pytest.raises(ValueError):
            HuffmanDecoder(lengths)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 15),
        st.lists(st.integers(1, 1000), min_size=2, max_size=286),
    )
    def test_codes_match_the_string_reversal_definition(self, max_bits, freqs):
        try:
            lengths = build_code_lengths(freqs, max_bits=max_bits)
        except ValueError:
            return  # more symbols than `max_bits` can code
        # canonical order: by length, then by symbol; each codeword is the
        # running counter written in `length` bits, stored bit-reversed
        expected = [0] * len(lengths)
        code = previous = 0
        for length, symbol in sorted((l, s) for s, l in enumerate(lengths) if l):
            code <<= length - previous
            expected[symbol] = int(format(code, f"0{length}b")[::-1], 2)
            code += 1
            previous = length
        assert canonical_codes(lengths) == expected


class TestEncodeDecode:
    def _roundtrip(self, message, alphabet, max_bits=11):
        freqs = [0] * alphabet
        for symbol in message:
            freqs[symbol] += 1
        encoder = HuffmanEncoder.from_frequencies(freqs, max_bits=max_bits)
        writer = BitWriter()
        for symbol in message:
            encoder.encode_symbol(writer, symbol)
        decoder = HuffmanDecoder(encoder.lengths)
        reader = BitReader(writer.getvalue())
        return [decoder.decode_symbol(reader) for _ in message]

    def test_roundtrip_small_alphabet(self):
        message = [0, 1, 1, 2, 2, 2, 3] * 50
        assert self._roundtrip(message, alphabet=4) == message

    def test_roundtrip_full_byte_alphabet(self):
        message = list(range(256)) * 3
        assert self._roundtrip(message, alphabet=256) == message

    def test_roundtrip_single_symbol_stream(self):
        message = [7] * 100
        assert self._roundtrip(message, alphabet=8) == message

    def test_encode_symbol_without_code_raises(self):
        encoder = HuffmanEncoder.from_frequencies([5, 0], max_bits=4)
        with pytest.raises(ValueError):
            encoder.encode_symbol(BitWriter(), 1)

    def test_encoded_bit_length_is_exact(self):
        freqs = [40, 30, 20, 10]
        encoder = HuffmanEncoder.from_frequencies(freqs, max_bits=8)
        writer = BitWriter()
        message = [0] * 40 + [1] * 30 + [2] * 20 + [3] * 10
        for symbol in message:
            encoder.encode_symbol(writer, symbol)
        assert encoder.encoded_bit_length(freqs) == writer.bit_length

    def test_decoder_rejects_garbage_code(self):
        # lengths with an incomplete code leave table holes -> decode error
        decoder = HuffmanDecoder([2, 0, 0, 0])  # only one 2-bit code
        reader = BitReader(b"\xff")
        with pytest.raises(ValueError):
            # 0b11 slot is unassigned
            decoder.decode_symbol(reader)

    def test_decoder_empty_alphabet_raises(self):
        with pytest.raises(ValueError):
            HuffmanDecoder([0, 0]).decode_symbol(BitReader(b"\x00"))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 15), min_size=1, max_size=400),
)
def test_roundtrip_property(symbols):
    freqs = [0] * 16
    for s in symbols:
        freqs[s] += 1
    encoder = HuffmanEncoder.from_frequencies(freqs, max_bits=11)
    writer = BitWriter()
    for s in symbols:
        encoder.encode_symbol(writer, s)
    decoder = HuffmanDecoder(encoder.lengths)
    reader = BitReader(writer.getvalue())
    assert [decoder.decode_symbol(reader) for _ in symbols] == symbols

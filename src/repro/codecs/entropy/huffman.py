"""Canonical, length-limited Huffman coding.

Code lengths are computed with the package-merge algorithm, which yields
optimal codes under a maximum-length constraint (DEFLATE caps lengths at 15
bits; the Zstandard-style literal coder caps them at 11). Codes are canonical
-- fully determined by their lengths -- so only the length table needs to be
serialized. Codewords are stored bit-reversed so that both encoder and
decoder operate on the shared LSB-first bit stream.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.codecs.entropy.bitio import SYMBOL_RUN, BitReader, BitWriter


#: each byte value with its bits in the opposite order
_REVERSED_BYTE = bytes(
    sum(1 << (7 - bit) for bit in range(8) if value >> bit & 1) for value in range(256)
)


def build_code_lengths(frequencies: Sequence[int], max_bits: int) -> List[int]:
    """Return optimal length-limited code lengths via package-merge.

    ``frequencies[i]`` is the occurrence count of symbol ``i``; symbols with
    zero frequency get length 0 (no code). Raises ``ValueError`` when the
    alphabet cannot fit in ``max_bits`` bits.
    """
    symbols = [i for i, f in enumerate(frequencies) if f > 0]
    lengths = [0] * len(frequencies)
    if not symbols:
        return lengths
    if len(symbols) == 1:
        lengths[symbols[0]] = 1
        return lengths
    if len(symbols) > (1 << max_bits):
        raise ValueError(
            f"{len(symbols)} symbols cannot be coded in {max_bits} bits"
        )

    # Package-merge: list L_max holds the original items; each of the
    # max_bits-1 packaging rounds pairs up adjacent items and merges the
    # originals back in. The first 2*(n-1) items of the final list L_1
    # determine code lengths (each appearance of a symbol adds one bit).
    originals = sorted((frequencies[s], (s,)) for s in symbols)
    packages: List[Tuple[int, Tuple[int, ...]]] = []
    for _ in range(max_bits - 1):
        merged = sorted(packages + originals)
        packages = [
            (
                merged[i][0] + merged[i + 1][0],
                merged[i][1] + merged[i + 1][1],
            )
            for i in range(0, len(merged) - 1, 2)
        ]
    counts: Dict[int, int] = {}
    needed = 2 * (len(symbols) - 1)
    merged = sorted(packages + originals)
    for weight, syms in merged[:needed]:
        for sym in syms:
            counts[sym] = counts.get(sym, 0) + 1
    for sym, length in counts.items():
        lengths[sym] = length
    return lengths


def canonical_codes(lengths: Sequence[int]) -> List[int]:
    """Assign canonical codewords (bit-reversed for LSB-first streams)."""
    max_len = max(lengths) if lengths else 0
    if max_len > 16:
        raise ValueError("code lengths above 16 bits are not supported")
    length_counts = [0] * (max_len + 1)
    for length in lengths:
        if length:
            length_counts[length] += 1
    next_code = [0] * (max_len + 2)
    code = 0
    for bits in range(1, max_len + 1):
        code = (code + length_counts[bits - 1]) << 1
        next_code[bits] = code
    # once a length runs out of codewords every longer one has too
    if code + length_counts[max_len] > 1 << max_len:
        raise ValueError("code lengths over-subscribe the code space")
    codes = [0] * len(lengths)
    reverse = _REVERSED_BYTE
    for symbol, length in enumerate(lengths):
        if length:
            code = next_code[length]
            next_code[length] = code + 1
            # the 16-bit reversal, two bytes swapped and each reversed,
            # shifted down to the codeword's own width
            codes[symbol] = (reverse[code & 0xFF] << 8 | reverse[code >> 8]) >> (
                16 - length
            )
    return codes


class HuffmanEncoder:
    """Encodes symbols with a canonical Huffman code."""

    def __init__(self, lengths: Sequence[int]) -> None:
        self.lengths = list(lengths)
        self.codes = canonical_codes(lengths)

    def encode(self, writer: BitWriter, symbols: Sequence[int]) -> None:
        """Append the codewords of ``symbols``, a run per ``write`` call."""
        codes = self.codes
        lengths = self.lengths
        for symbol in sorted(set(symbols)):
            if not lengths[symbol]:
                raise ValueError(f"symbol {symbol} has no code")
        for start in range(0, len(symbols), SYMBOL_RUN):
            packed = packed_bits = 0
            for symbol in symbols[start : start + SYMBOL_RUN]:
                packed |= codes[symbol] << packed_bits
                packed_bits += lengths[symbol]
            writer.write(packed, packed_bits)

    def encode_symbol(self, writer: BitWriter, symbol: int) -> None:
        self.encode(writer, (symbol,))

    def encoded_bit_length(self, frequencies: Sequence[int]) -> int:
        """Total bits needed to code a message with the given histogram."""
        return sum(
            freq * self.lengths[sym]
            for sym, freq in enumerate(frequencies)
            if freq
        )


class HuffmanDecoder:
    """Table-driven decoder for a canonical Huffman code.

    ``table[bits]`` is ``(symbol, length)`` for the codeword that the next
    ``max_length`` bits of the stream start with, ``(-1, 0)`` when they
    start with none (an empty alphabet is one such slot). Decoders that
    interleave codewords with other fields (inflate) walk the table
    themselves.
    """

    def __init__(self, lengths: Sequence[int]) -> None:
        self.lengths = list(lengths)
        self.max_length = max(lengths) if any(lengths) else 0
        codes = canonical_codes(lengths)
        table_size = 1 << self.max_length
        self.table: List[Tuple[int, int]] = [(-1, 0)] * table_size
        for symbol, length in enumerate(lengths):
            if length:
                # Fill every slot whose low `length` bits match the code.
                self.table[codes[symbol] :: 1 << length] = [(symbol, length)] * (
                    table_size >> length
                )

    def decode(self, reader: BitReader, count: int) -> List[int]:
        """Decode ``count`` symbols, a run per peeked window."""
        table = self.table
        width = self.max_length
        mask = (1 << width) - 1
        symbols: List[int] = []
        for done in range(0, count, SYMBOL_RUN):
            run = min(SYMBOL_RUN, count - done)
            # Past the end of the stream the window reads as zeros, which
            # the final codewords need, and `skip` raises on overrun.
            window = reader.peek(run * width)
            used = 0
            for _ in range(run):
                symbol, length = table[window >> used & mask]
                symbols.append(symbol)
                used += length
            # An empty slot consumes no bits, so the rest of its run reads
            # the same slot: the run's last symbol tells for all of them.
            if symbol < 0:
                raise ValueError("invalid Huffman code in stream")
            reader.skip(used)
        return symbols

    def decode_symbol(self, reader: BitReader) -> int:
        return self.decode(reader, 1)[0]

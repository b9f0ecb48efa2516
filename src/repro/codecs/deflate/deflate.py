"""DEFLATE block encoder (RFC 1951): stored, fixed, and dynamic blocks."""

from __future__ import annotations

from collections import Counter
from itertools import islice
from operator import mul
from typing import List, Sequence, Tuple

from repro.codecs.base import StageCounters
from repro.codecs.entropy.bitio import BitWriter
from repro.codecs.entropy.huffman import HuffmanEncoder, build_code_lengths
from repro.codecs.lz77 import Sequences, check_sequences, literal_bytes
from repro.codecs.deflate import tables as dtables

_BTYPE_STORED = 0
_BTYPE_FIXED = 1
_BTYPE_DYNAMIC = 2

#: pending bits at which the symbol loop hands its packed int to the writer
_PACKED_BITS = 1024


def _match_codes(sequences: Sequences, count: int) -> Tuple[List[int], List[int]]:
    """The length codes (less 257) and distance codes of a parse's first
    ``count`` entries, read off ``dtables.LENGTH_CODES`` / ``DISTANCE_CODES``."""
    __, match_lengths, offsets = sequences
    length_code_of, distance_code_of = dtables.LENGTH_CODES, dtables.DISTANCE_CODES
    return (
        [length_code_of[ml - 3] for ml in islice(match_lengths, count)],
        [
            distance_code_of[d - 1] if d <= 256 else distance_code_of[256 + ((d - 1) >> 7)]
            for d in islice(offsets, count)
        ],
    )


def _code_histograms(
    literals: bytes, length_codes: List[int], distance_codes: List[int]
) -> Tuple[List[int], List[int], int]:
    """Literal/length and distance code counts of one block (its end-of-block
    symbol included), and the extra bits its matches carry."""
    lit_freq = [0] * 286
    for byte, occurrences in Counter(literals).items():
        lit_freq[byte] = occurrences
    lit_freq[dtables.END_OF_BLOCK] = 1
    extra_bits = 0
    for code, occurrences in Counter(length_codes).items():
        lit_freq[257 + code] = occurrences
        extra_bits += occurrences * dtables.LENGTH_TABLE[code][1]
    dist_freq = [0] * 30
    for code, occurrences in Counter(distance_codes).items():
        dist_freq[code] = occurrences
        extra_bits += occurrences * dtables.DISTANCE_TABLE[code][1]
    return lit_freq, dist_freq, extra_bits


def _rle_code_lengths(lengths: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Run-length encode code lengths with RFC 1951 symbols 16/17/18.

    Returns ``(symbol, extra_value, extra_bits)`` triples.
    """
    out: List[Tuple[int, int, int]] = []
    index = 0
    n = len(lengths)
    while index < n:
        value = lengths[index]
        run = 1
        while index + run < n and lengths[index + run] == value:
            run += 1
        index += run
        if value == 0:
            while run >= 11:
                repeat = min(run, 138)
                out.append((18, repeat - 11, 7))
                run -= repeat
            if run >= 3:
                out.append((17, run - 3, 3))
                run = 0
            out.extend((0, 0, 0) for _ in range(run))
        else:
            out.append((value, 0, 0))
            run -= 1
            while run >= 3:
                repeat = min(run, 6)
                out.append((16, repeat - 3, 2))
                run -= repeat
            out.extend((value, 0, 0) for _ in range(run))
    return out


def _write_symbols(
    writer: BitWriter,
    literals: bytes,
    sequences: Sequences,
    length_codes: List[int],
    distance_codes: List[int],
    lit_encoder: HuffmanEncoder,
    dist_encoder: HuffmanEncoder,
) -> None:
    """Code a block's literals and matches in parse order, then its
    end-of-block symbol, packing them into one int between writes."""
    lit_codes, lit_lengths = lit_encoder.codes, lit_encoder.lengths
    dist_codes, dist_lengths = dist_encoder.codes, dist_encoder.lengths
    length_table, distance_table = dtables.LENGTH_TABLE, dtables.DISTANCE_TABLE
    literal_lengths, match_lengths, offsets = sequences
    packed = packed_bits = 0
    literal_start = 0
    # the trailing literal-only entry, if any, is the one zip leaves out
    for length_code, distance_code, literal_length, match_length, offset in zip(
        length_codes, distance_codes, literal_lengths, match_lengths, offsets
    ):
        literal_end = literal_start + literal_length
        for byte in literals[literal_start:literal_end]:
            packed |= lit_codes[byte] << packed_bits
            packed_bits += lit_lengths[byte]
            if packed_bits >= _PACKED_BITS:
                writer.write(packed, packed_bits)
                packed = packed_bits = 0
        literal_start = literal_end
        symbol = 257 + length_code
        base, bits = length_table[length_code]
        length = lit_lengths[symbol]
        packed |= (lit_codes[symbol] | (match_length - base) << length) << packed_bits
        packed_bits += length + bits
        base, bits = distance_table[distance_code]
        length = dist_lengths[distance_code]
        packed |= (dist_codes[distance_code] | (offset - base) << length) << packed_bits
        packed_bits += length + bits
        if packed_bits >= _PACKED_BITS:
            writer.write(packed, packed_bits)
            packed = packed_bits = 0
    for byte in literals[literal_start:]:
        packed |= lit_codes[byte] << packed_bits
        packed_bits += lit_lengths[byte]
        if packed_bits >= _PACKED_BITS:
            writer.write(packed, packed_bits)
            packed = packed_bits = 0
    symbol = dtables.END_OF_BLOCK
    writer.write(packed | lit_codes[symbol] << packed_bits, packed_bits + lit_lengths[symbol])


def _dynamic_header_plan(
    lit_lengths: List[int], dist_lengths: List[int]
) -> Tuple[int, int, List[Tuple[int, int, int]], List[int], int]:
    """Plan a dynamic block header.

    Returns (hlit, hdist, rle_items, cl_lengths, header_bits).
    """
    hlit = 286
    while hlit > 257 and lit_lengths[hlit - 1] == 0:
        hlit -= 1
    hdist = 30
    while hdist > 1 and dist_lengths[hdist - 1] == 0:
        hdist -= 1
    rle_items = _rle_code_lengths(lit_lengths[:hlit] + dist_lengths[:hdist])
    cl_freq = [0] * 19
    for symbol, __, __ in rle_items:
        cl_freq[symbol] += 1
    cl_lengths = build_code_lengths(cl_freq, max_bits=7)
    hclen = 19
    while hclen > 4 and cl_lengths[dtables.CODE_LENGTH_ORDER[hclen - 1]] == 0:
        hclen -= 1
    header_bits = 5 + 5 + 4 + 3 * hclen + sum(
        cl_lengths[symbol] + bits for symbol, __, bits in rle_items
    )
    return hlit, hdist, rle_items, cl_lengths, header_bits


def encode_stream(
    data: bytes,
    start: int,
    sequences: Sequences,
    counters: StageCounters,
    level: int,
) -> bytes:
    """Produce a complete DEFLATE stream for ``data[start:]``.

    Picks the cheapest of stored / fixed-Huffman / dynamic-Huffman encoding,
    like the reference implementation's opt_len/static_len comparison.
    Raises ``ValueError`` when the parse is not one the format can code.
    """
    raw = data[start:]
    if level == 0:
        return _stored_stream(raw, counters)

    count = check_sequences(
        sequences,
        len(raw),
        dtables.MIN_MATCH,
        dtables.MAX_MATCH,
        dtables.MAX_DISTANCE,
    )
    literals = literal_bytes(data, start, sequences)
    length_codes, distance_codes = _match_codes(sequences, count)
    lit_freq, dist_freq, extra_bits = _code_histograms(
        literals, length_codes, distance_codes
    )

    dyn_lit_lengths = build_code_lengths(lit_freq, max_bits=15)
    # give an empty distance tree one code, as zlib does
    dyn_dist_lengths = build_code_lengths(
        dist_freq if count else [1] + dist_freq[1:], max_bits=15
    )
    hlit, hdist, rle_items, cl_lengths, header_bits = _dynamic_header_plan(
        dyn_lit_lengths, dyn_dist_lengths
    )
    counters.table_builds += 2

    fixed_lit = dtables.fixed_literal_lengths()
    fixed_dist = dtables.fixed_distance_lengths()

    def body_bits(lit_lengths: Sequence[int], dist_lengths: Sequence[int]) -> int:
        return (
            sum(map(mul, lit_freq, lit_lengths))
            + sum(map(mul, dist_freq, dist_lengths))
            + extra_bits
        )

    dynamic_bits = 3 + header_bits + body_bits(dyn_lit_lengths, dyn_dist_lengths)
    fixed_bits = 3 + body_bits(fixed_lit, fixed_dist)
    stored_bits = 8 * len(raw) + 40 * (1 + len(raw) // 65535) + 8

    writer = BitWriter()
    if stored_bits < min(dynamic_bits, fixed_bits):
        return _stored_stream(raw, counters)
    if fixed_bits <= dynamic_bits:
        writer.write(1, 1)  # BFINAL
        writer.write(_BTYPE_FIXED, 2)
        _write_symbols(
            writer,
            literals,
            sequences,
            length_codes,
            distance_codes,
            HuffmanEncoder(fixed_lit),
            HuffmanEncoder(fixed_dist),
        )
        counters.entropy_bits += fixed_bits
    else:
        writer.write(1, 1)
        writer.write(_BTYPE_DYNAMIC, 2)
        writer.write(hlit - 257, 5)
        writer.write(hdist - 1, 5)
        hclen = 19
        while hclen > 4 and cl_lengths[dtables.CODE_LENGTH_ORDER[hclen - 1]] == 0:
            hclen -= 1
        writer.write(hclen - 4, 4)
        for order_index in range(hclen):
            writer.write(cl_lengths[dtables.CODE_LENGTH_ORDER[order_index]], 3)
        cl_encoder = HuffmanEncoder(cl_lengths)
        for symbol, extra, bits in rle_items:
            cl_encoder.encode_symbol(writer, symbol)
            if bits:
                writer.write(extra, bits)
        _write_symbols(
            writer,
            literals,
            sequences,
            length_codes,
            distance_codes,
            HuffmanEncoder(dyn_lit_lengths),
            HuffmanEncoder(dyn_dist_lengths),
        )
        counters.entropy_bits += dynamic_bits
    counters.entropy_symbols += len(literals) + count + 1
    writer.align_to_byte()
    return writer.getvalue()


def _stored_stream(raw: bytes, counters: StageCounters) -> bytes:
    """Emit the input as stored blocks (BTYPE 00), 65535 bytes max each."""
    writer = BitWriter()
    chunks = [raw[i : i + 65535] for i in range(0, len(raw), 65535)] or [b""]
    for index, chunk in enumerate(chunks):
        writer.write(1 if index == len(chunks) - 1 else 0, 1)
        writer.write(_BTYPE_STORED, 2)
        writer.align_to_byte()
        writer.write_bytes(len(chunk).to_bytes(2, "little"))
        writer.write_bytes((len(chunk) ^ 0xFFFF).to_bytes(2, "little"))
        writer.write_bytes(chunk)
    counters.entropy_bits += len(raw) * 8
    return writer.getvalue()

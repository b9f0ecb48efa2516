"""DEFLATE block encoder (RFC 1951): stored, fixed, and dynamic blocks."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.codecs.base import StageCounters
from repro.codecs.entropy.bitio import SYMBOL_RUN, BitWriter
from repro.codecs.entropy.huffman import HuffmanEncoder, build_code_lengths
from repro.codecs.lz77 import Token
from repro.codecs.deflate import tables as dtables

_BTYPE_STORED = 0
_BTYPE_FIXED = 1
_BTYPE_DYNAMIC = 2

#: (lit_or_len_code, len_extra, len_extra_bits, dist_code, dist_extra, dist_extra_bits)
Symbol = Tuple[int, int, int, int, int, int]


def _tokens_to_symbols(data: bytes, start: int, tokens: List[Token]) -> List[Symbol]:
    """Flatten a parse into DEFLATE symbols (literals use dist_code == -1)."""
    symbols: List[Symbol] = []
    position = start
    for token in tokens:
        for byte in data[position : position + token.literal_length]:
            symbols.append((byte, 0, 0, -1, 0, 0))
        position += token.literal_length
        if token.match_length:
            lcode = dtables.length_code(token.match_length)
            lbase, lbits = dtables.LENGTH_TABLE[lcode - 257]
            dcode = dtables.distance_code(token.offset)
            dbase, dbits = dtables.DISTANCE_TABLE[dcode]
            symbols.append(
                (lcode, token.match_length - lbase, lbits, dcode, token.offset - dbase, dbits)
            )
            position += token.match_length
    symbols.append((dtables.END_OF_BLOCK, 0, 0, -1, 0, 0))
    return symbols


def _histograms(symbols: Sequence[Symbol]) -> Tuple[List[int], List[int]]:
    lit_freq = [0] * 286
    dist_freq = [0] * 30
    for code, __, __, dcode, __, __ in symbols:
        lit_freq[code] += 1
        if dcode >= 0:
            dist_freq[dcode] += 1
    return lit_freq, dist_freq


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
    symbols: Sequence[Symbol],
    lit_encoder: HuffmanEncoder,
    dist_encoder: HuffmanEncoder,
) -> None:
    lit_codes, lit_lengths = lit_encoder.codes, lit_encoder.lengths
    dist_codes, dist_lengths = dist_encoder.codes, dist_encoder.lengths
    for start in range(0, len(symbols), SYMBOL_RUN):
        packed = packed_bits = 0
        for code, len_extra, len_bits, dcode, dist_extra, dist_bits in symbols[
            start : start + SYMBOL_RUN
        ]:
            length = lit_lengths[code]
            if not length:
                raise ValueError(f"symbol {code} has no code")
            packed |= (lit_codes[code] | len_extra << length) << packed_bits
            packed_bits += length + len_bits
            if dcode >= 0:
                length = dist_lengths[dcode]
                if not length:
                    raise ValueError(f"symbol {dcode} has no code")
                packed |= (dist_codes[dcode] | dist_extra << length) << packed_bits
                packed_bits += length + dist_bits
        writer.write(packed, packed_bits)


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
    tokens: List[Token],
    counters: StageCounters,
    level: int,
) -> bytes:
    """Produce a complete DEFLATE stream for ``data[start:]``.

    Picks the cheapest of stored / fixed-Huffman / dynamic-Huffman encoding,
    like the reference implementation's opt_len/static_len comparison.
    """
    raw = data[start:]
    if level == 0:
        return _stored_stream(raw, counters)

    symbols = _tokens_to_symbols(data, start, tokens)
    lit_freq, dist_freq = _histograms(symbols)
    if not any(dist_freq):
        dist_freq[0] = 1  # give the distance tree one code, as zlib does

    dyn_lit_lengths = build_code_lengths(lit_freq, max_bits=15)
    dyn_dist_lengths = build_code_lengths(dist_freq, max_bits=15)
    hlit, hdist, rle_items, cl_lengths, header_bits = _dynamic_header_plan(
        dyn_lit_lengths, dyn_dist_lengths
    )
    counters.table_builds += 2

    fixed_lit = dtables.fixed_literal_lengths()
    fixed_dist = dtables.fixed_distance_lengths()

    def body_bits(lit_lengths: Sequence[int], dist_lengths: Sequence[int]) -> int:
        total = 0
        for code, __, len_bits, dcode, __, dist_bits in symbols:
            total += lit_lengths[code] + len_bits
            if dcode >= 0:
                total += dist_lengths[dcode] + dist_bits
        return total

    dynamic_bits = 3 + header_bits + body_bits(dyn_lit_lengths, dyn_dist_lengths)
    fixed_bits = 3 + body_bits(fixed_lit, fixed_dist)
    stored_bits = 8 * len(raw) + 40 * (1 + len(raw) // 65535) + 8

    writer = BitWriter()
    if stored_bits < min(dynamic_bits, fixed_bits):
        return _stored_stream(raw, counters)
    if fixed_bits <= dynamic_bits:
        writer.write(1, 1)  # BFINAL
        writer.write(_BTYPE_FIXED, 2)
        _write_symbols(writer, symbols, HuffmanEncoder(fixed_lit), HuffmanEncoder(fixed_dist))
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
            writer, symbols, HuffmanEncoder(dyn_lit_lengths), HuffmanEncoder(dyn_dist_lengths)
        )
        counters.entropy_bits += dynamic_bits
    counters.entropy_symbols += len(symbols)
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

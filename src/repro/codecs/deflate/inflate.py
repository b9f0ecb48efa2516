"""DEFLATE decoder (inflate), RFC 1951."""

from __future__ import annotations

from typing import List, Tuple

from repro.codecs.base import CorruptDataError, StageCounters
from repro.codecs.entropy.bitio import BitReader
from repro.codecs.entropy.huffman import HuffmanDecoder
from repro.codecs.lz77 import copy_match
from repro.codecs.deflate import tables as dtables


def _read_dynamic_tables(reader: BitReader) -> Tuple[HuffmanDecoder, HuffmanDecoder]:
    hlit = reader.read(5) + 257
    hdist = reader.read(5) + 1
    hclen = reader.read(4) + 4
    cl_lengths = [0] * 19
    for order_index in range(hclen):
        cl_lengths[dtables.CODE_LENGTH_ORDER[order_index]] = reader.read(3)
    cl_decoder = HuffmanDecoder(cl_lengths)

    lengths: List[int] = []
    while len(lengths) < hlit + hdist:
        symbol = cl_decoder.decode_symbol(reader)
        if symbol < 16:
            lengths.append(symbol)
        elif symbol == 16:
            if not lengths:
                raise CorruptDataError("repeat code with no previous length")
            repeat = reader.read(2) + 3
            lengths.extend([lengths[-1]] * repeat)
        elif symbol == 17:
            repeat = reader.read(3) + 3
            lengths.extend([0] * repeat)
        else:
            repeat = reader.read(7) + 11
            lengths.extend([0] * repeat)
    if len(lengths) != hlit + hdist:
        raise CorruptDataError("code length RLE overflows the table")
    lit_lengths = lengths[:hlit] + [0] * (286 - hlit)
    dist_lengths = lengths[hlit:] + [0] * (30 - hdist)
    return HuffmanDecoder(lit_lengths), HuffmanDecoder(dist_lengths)


#: bits peeked per window of the symbol loop
_WINDOW_BITS = 512
#: most bits one literal/length + distance pair consumes: two 15-bit
#: codewords, 5 length extra bits, 13 distance extra bits
_MAX_PAIR_BITS = 15 + 5 + 15 + 13


def _inflate_block(
    reader: BitReader,
    out: bytearray,
    lit_decoder: HuffmanDecoder,
    dist_decoder: HuffmanDecoder,
    counters: StageCounters,
    budget_check,
) -> None:
    """Decode one Huffman-coded block's symbols into ``out``.

    Symbols are decoded out of a peeked window, many per ``peek``/``skip``
    pair. A window may reach past the end of the stream (it reads as zeros
    there), so every symbol is checked against the bits that really remain
    before it takes effect.
    """
    lit_table, lit_mask = lit_decoder.table, (1 << lit_decoder.max_length) - 1
    dist_table, dist_mask = dist_decoder.table, (1 << dist_decoder.max_length) - 1
    length_table, distance_table = dtables.LENGTH_TABLE, dtables.DISTANCE_TABLE
    literals = matches = match_bytes = 0
    while True:
        window = reader.peek(_WINDOW_BITS)
        available = reader.bits_remaining
        used = 0
        while used <= _WINDOW_BITS - _MAX_PAIR_BITS:
            symbol, bits = lit_table[window >> used & lit_mask]
            if symbol < 0:
                raise ValueError("invalid Huffman code in stream")
            used += bits
            if symbol > dtables.END_OF_BLOCK:
                if symbol > 285:
                    raise CorruptDataError(f"invalid length code {symbol}")
                base, bits = length_table[symbol - 257]
                length = base + (window >> used & ((1 << bits) - 1))
                used += bits
                dcode, bits = dist_table[window >> used & dist_mask]
                if dcode < 0:
                    raise ValueError("invalid Huffman code in stream")
                used += bits
                if dcode > 29:
                    raise CorruptDataError(f"invalid distance code {dcode}")
                base, bits = distance_table[dcode]
                distance = base + (window >> used & ((1 << bits) - 1))
                used += bits
                if used > available:
                    raise EOFError("bit stream exhausted")
                copy_match(out, distance, length)
                matches += 1
                match_bytes += length
                if budget_check is not None:
                    budget_check(len(out))
            elif used > available:
                raise EOFError("bit stream exhausted")
            elif symbol < dtables.END_OF_BLOCK:
                out.append(symbol)
                literals += 1
            else:
                reader.skip(used)
                # distance codewords are not tallied as entropy symbols
                counters.entropy_symbols_decoded += literals + matches + 1
                counters.literal_bytes_copied += literals
                counters.match_bytes_copied += match_bytes
                counters.sequences_decoded += matches
                return
        reader.skip(used)


def decode_stream(
    payload: bytes, counters: StageCounters, budget_check=None, start: int = 0
) -> Tuple[bytes, int]:
    """Inflate one complete DEFLATE stream starting at byte ``start``.

    Returns ``(data, end)`` where ``end`` is the byte offset just past the
    stream's final block (rounded up to the next byte boundary) -- the
    position of the container trailer, which is how the zlib/gzip decoders
    walk concatenated members of a multi-frame stream.

    ``budget_check``, when given, is called with the output size after each
    stored block or back-reference copy; it raises to abort oversized
    (bomb-like) expansions early.
    """
    reader = BitReader(payload, start=start)
    out = bytearray()
    fixed_lit: HuffmanDecoder = None  # built lazily
    fixed_dist: HuffmanDecoder = None
    try:
        while True:
            is_final = reader.read(1)
            btype = reader.read(2)
            if btype == 0:
                reader.align_to_byte()
                size_bytes = reader.read_bytes(2)
                nsize_bytes = reader.read_bytes(2)
                size = int.from_bytes(size_bytes, "little")
                if size ^ 0xFFFF != int.from_bytes(nsize_bytes, "little"):
                    raise CorruptDataError("stored block LEN/NLEN mismatch")
                out.extend(reader.read_bytes(size))
                counters.literal_bytes_copied += size
                if budget_check is not None:
                    budget_check(len(out))
            elif btype in (1, 2):
                if btype == 1:
                    if fixed_lit is None:
                        fixed_lit = HuffmanDecoder(dtables.fixed_literal_lengths())
                        fixed_dist = HuffmanDecoder(dtables.fixed_distance_lengths())
                    lit_decoder, dist_decoder = fixed_lit, fixed_dist
                else:
                    lit_decoder, dist_decoder = _read_dynamic_tables(reader)
                _inflate_block(
                    reader, out, lit_decoder, dist_decoder, counters, budget_check
                )
            else:
                raise CorruptDataError("reserved block type 3")
            if is_final:
                reader.align_to_byte()
                return bytes(out), reader.byte_position
    except (EOFError, ValueError) as exc:
        raise CorruptDataError(f"bad DEFLATE stream: {exc}") from None

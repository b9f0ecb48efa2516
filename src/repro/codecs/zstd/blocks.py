"""Compressed-block encoding for the Zstd-style codec.

A compressed block body is::

    [literals section][sequences section]

Literals (all blocks' literal bytes concatenated in parse order) are stored
raw, as an RLE byte, or Huffman-coded -- whichever is smallest. Sequences
are (literal length, offset, match length) triples; each field is mapped to
a code (RFC 8478 tables) and the three code streams are FSE-coded, each with
either a predefined distribution, a custom table shipped in the block header,
or RLE when the stream is constant. Extra bits follow, packed per sequence.

Trailing literals after the last sequence are implicit (the decoder appends
whatever literals remain), matching the real format's convention.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import islice
from typing import List, Optional, Tuple

from repro.codecs.base import CorruptDataError, StageCounters
from repro.codecs.entropy.bitio import BitReader, BitWriter
from repro.codecs.entropy.fse import FSEDecoder, FSEEncoder, normalize_counts
from repro.codecs.entropy.huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    build_code_lengths,
)
from repro.codecs.lz77 import Sequences, check_sequences, literal_bytes
from repro.codecs.varint import read_uvarint, write_uvarint
from repro.codecs.zstd import params as zparams

_LITERALS_RAW = 0
_LITERALS_RLE = 1
_LITERALS_HUFFMAN = 2

_STREAM_PREDEFINED = 0
_STREAM_CUSTOM = 1
_STREAM_RLE = 2

_HUFFMAN_MAX_BITS = 11
_LOW_NIBBLE = bytes(byte & 0x0F for byte in range(256))
_HIGH_NIBBLE = bytes(byte >> 4 for byte in range(256))


def _histogram(symbols, alphabet: int) -> List[int]:
    """Occurrences of each symbol of ``symbols``, indexed by symbol."""
    frequencies = [0] * alphabet
    for symbol, occurrences in Counter(symbols).items():
        frequencies[symbol] = occurrences
    return frequencies


# --------------------------------------------------------------------------
# Literals section


def _encode_literals(literals: bytes, out: bytearray, counters: StageCounters) -> None:
    if literals and literals.count(literals[0]) == len(literals):
        out.append(_LITERALS_RLE)
        write_uvarint(out, len(literals))
        out.append(literals[0])
        counters.entropy_symbols += 1
        return
    if len(literals) >= 64:
        frequencies = _histogram(literals, 256)
        lengths = build_code_lengths(frequencies, _HUFFMAN_MAX_BITS)
        encoder = HuffmanEncoder(lengths)
        counters.table_builds += 1
        payload_bits = encoder.encoded_bit_length(frequencies)
        max_symbol = max(s for s, f in enumerate(frequencies) if f)
        table_bytes = 2 + (max_symbol + 2) // 2
        total = 1 + 5 + table_bytes + (payload_bits + 7) // 8
        if total < len(literals):
            out.append(_LITERALS_HUFFMAN)
            write_uvarint(out, len(literals))
            out.extend(max_symbol.to_bytes(2, "little"))
            nibbles = bytearray()
            for sym in range(0, max_symbol + 1, 2):
                low = lengths[sym]
                high = lengths[sym + 1] if sym + 1 <= max_symbol else 0
                nibbles.append(low | (high << 4))
            out.extend(nibbles)
            writer = BitWriter()
            encoder.encode(writer, literals)
            encoded = writer.getvalue()
            write_uvarint(out, len(encoded))
            out.extend(encoded)
            counters.entropy_symbols += len(literals)
            counters.entropy_bits += payload_bits
            return
    out.append(_LITERALS_RAW)
    write_uvarint(out, len(literals))
    out.extend(literals)


def _decode_literals(
    payload: bytes, pos: int, counters: StageCounters
) -> Tuple[bytes, int]:
    if pos >= len(payload):
        raise CorruptDataError("missing literals section")
    mode = payload[pos]
    pos += 1
    size, pos = read_uvarint(payload, pos)
    if size > zparams.MAX_BLOCK_SIZE:
        raise CorruptDataError("literals size exceeds block limit")
    if mode == _LITERALS_RAW:
        if pos + size > len(payload):
            raise CorruptDataError("truncated raw literals")
        return payload[pos : pos + size], pos + size
    if mode == _LITERALS_RLE:
        if pos >= len(payload):
            raise CorruptDataError("truncated RLE literals")
        byte = payload[pos]
        counters.entropy_symbols_decoded += 1
        return bytes([byte]) * size, pos + 1
    if mode == _LITERALS_HUFFMAN:
        if pos + 2 > len(payload):
            raise CorruptDataError("truncated Huffman table header")
        max_symbol = int.from_bytes(payload[pos : pos + 2], "little")
        pos += 2
        if max_symbol > 255:
            raise CorruptDataError("invalid Huffman alphabet")
        nibble_count = (max_symbol + 2) // 2
        if pos + nibble_count > len(payload):
            raise CorruptDataError("truncated Huffman table")
        # two code lengths a byte, low nibble first; the last byte's high
        # nibble is padding when the alphabet's size is odd
        packed = payload[pos : pos + nibble_count]
        lengths = [0] * 256
        lengths[0 : 2 * nibble_count : 2] = packed.translate(_LOW_NIBBLE)
        lengths[1 : 2 * nibble_count : 2] = packed.translate(_HIGH_NIBBLE)
        if not max_symbol & 1:
            lengths[max_symbol + 1] = 0
        pos += nibble_count
        encoded_size, pos = read_uvarint(payload, pos)
        if pos + encoded_size > len(payload):
            raise CorruptDataError("truncated Huffman payload")
        decoder = HuffmanDecoder(lengths)
        reader = BitReader(payload[pos : pos + encoded_size])
        try:
            literals = bytes(decoder.decode(reader, size))
        except (EOFError, ValueError) as exc:
            raise CorruptDataError(f"bad Huffman stream: {exc}") from None
        counters.entropy_symbols_decoded += size
        return literals, pos + encoded_size
    raise CorruptDataError(f"unknown literals mode {mode}")


# --------------------------------------------------------------------------
# Sequences section


_STREAM_SPECS = (
    # (code table, predefined norm, predefined log)
    (zparams.LL_TABLE, zparams.PREDEFINED_LL_NORM, zparams.PREDEFINED_LL_LOG),
    (zparams.OF_TABLE, zparams.PREDEFINED_OF_NORM, zparams.PREDEFINED_OF_LOG),
    (zparams.ML_TABLE, zparams.PREDEFINED_ML_NORM, zparams.PREDEFINED_ML_LOG),
)

#: most extra bits one sequence can carry (LL 16 + OF 26 + ML 16)
_MAX_EXTRA_BITS = sum(max(bits for __, bits in spec[0]) for spec in _STREAM_SPECS)
#: sequences whose extra bits are read per peeked window
_SEQUENCE_RUN = 16
#: pending extra bits at which the encoder hands its packed int to the writer
_PACKED_BITS = 1024
#: the code tables as the decoder reads them: (baseline, extra bits, their mask)
_LL_DECODE, _OF_DECODE, _ML_DECODE = (
    [(baseline, bits, (1 << bits) - 1) for baseline, bits in spec[0]]
    for spec in _STREAM_SPECS
)
#: the longest match and the farthest offset the ML and OF codes can state
_MAX_MATCH = zparams.ML_TABLE[-1][0] + (1 << zparams.ML_TABLE[-1][1]) - 1
_MAX_OFFSET = (2 << zparams.MAX_OFFSET_CODE) - 1


@lru_cache(maxsize=None)
def _predefined_encoder(stream_index: int) -> FSEEncoder:
    """The shared encoder of a predefined distribution, built on first use."""
    __, norm, table_log = _STREAM_SPECS[stream_index]
    return FSEEncoder(norm, table_log)


@lru_cache(maxsize=None)
def _predefined_decoder(stream_index: int) -> FSEDecoder:
    """The shared decoder of a predefined distribution, built on first use."""
    __, norm, table_log = _STREAM_SPECS[stream_index]
    return FSEDecoder(norm, table_log)


def _choose_stream_mode(
    codes: List[int], stream_index: int
) -> Tuple[int, Optional[FSEEncoder], Optional[BitWriter]]:
    """Pick RLE / predefined / custom coding for one code stream.

    ``stream_index`` selects the LL, OF or ML row of ``_STREAM_SPECS``.
    Returns (mode, encoder, coded): the encoder that codes the stream
    cheapest, ``None`` for RLE, and for a custom table the stream already
    coded with it, else ``None``. The decision compares exact coded cost
    including the custom table header; a custom stream's cost is read off
    its coding, so the stream is not walked again to code it.
    """
    if codes.count(codes[0]) == len(codes):
        return _STREAM_RLE, None, None
    predefined = _predefined_encoder(stream_index)
    alphabet = len(_STREAM_SPECS[stream_index][0])
    predefined_cost = predefined.cost_in_bits(codes)
    custom_log = min(9, max(5, len(codes).bit_length()))
    header_bits = 8 + 8 + alphabet * (custom_log + 1)
    # A custom stream costs at least its header plus its initial state.
    if predefined_cost <= header_bits + custom_log:
        return _STREAM_PREDEFINED, predefined, None
    try:
        custom_norm = normalize_counts(_histogram(codes, alphabet), custom_log)
    except ValueError:
        return _STREAM_PREDEFINED, predefined, None
    custom = FSEEncoder(custom_norm, custom_log)
    coded = BitWriter()
    if custom.encode(codes, coded) + header_bits < predefined_cost:
        return _STREAM_CUSTOM, custom, coded
    return _STREAM_PREDEFINED, predefined, None


def _write_custom_table(out: bytearray, normalized: List[int], table_log: int) -> None:
    out.append(table_log)
    max_symbol = max(s for s, n in enumerate(normalized) if n)
    out.append(max_symbol)
    writer = BitWriter()
    for symbol in range(max_symbol + 1):
        writer.write(normalized[symbol], table_log + 1)
    out.extend(writer.getvalue())


def _read_custom_table(
    payload: bytes, pos: int, alphabet: int
) -> Tuple[List[int], int, int]:
    if pos + 2 > len(payload):
        raise CorruptDataError("truncated FSE table header")
    table_log = payload[pos]
    max_symbol = payload[pos + 1]
    pos += 2
    # the encoder writes 5..9; below 5 the spread step need not be odd,
    # so not every table size has a spread at all
    if not 5 <= table_log <= 12:
        raise CorruptDataError("FSE table log out of range")
    if max_symbol >= alphabet:
        raise CorruptDataError("FSE symbol out of range")
    total_bits = (max_symbol + 1) * (table_log + 1)
    total_bytes = (total_bits + 7) // 8
    if pos + total_bytes > len(payload):
        raise CorruptDataError("truncated FSE table")
    # `max_symbol + 1` fields of `table_log + 1` bits, LSB-first
    fields = int.from_bytes(payload[pos : pos + total_bytes], "little")
    mask = (2 << table_log) - 1
    normalized = [
        fields >> shift & mask for shift in range(0, total_bits, table_log + 1)
    ]
    normalized += [0] * (alphabet - len(normalized))
    if sum(normalized) != (1 << table_log):
        raise CorruptDataError("FSE table does not sum to table size")
    return normalized, table_log, pos + total_bytes


def _sequence_codes(
    sequences: Sequences, count: int
) -> Tuple[List[int], List[int], List[int]]:
    """The LL, OF and ML codes of a parse's first ``count`` entries, read
    off ``zparams.LL_CODES`` / ``ML_CODES`` and, past their ends, off the
    bit length (``zparams`` says why that is the code)."""
    literal_lengths, match_lengths, offsets = sequences
    ll_codes, ml_codes = zparams.LL_CODES, zparams.ML_CODES
    return (
        [
            ll_codes[ll] if ll < 64 else min(ll.bit_length() + 18, 35)
            for ll in islice(literal_lengths, count)
        ],
        [of.bit_length() - 1 for of in islice(offsets, count)],
        [
            ml_codes[ml] if ml < 131 else (ml - 3).bit_length() + 35
            for ml in islice(match_lengths, count)
        ],
    )


def _encode_sequences(
    sequences: Sequences, count: int, out: bytearray, counters: StageCounters
) -> None:
    """Encode the first ``count`` entries of a parse, all of them matches."""
    write_uvarint(out, count)
    if not count:
        return
    literal_lengths, match_lengths, offsets = sequences
    code_streams = _sequence_codes(sequences, count)
    writer = BitWriter()
    for stream_index, codes in enumerate(code_streams):
        mode, encoder, coded = _choose_stream_mode(codes, stream_index)
        out.append(mode)
        if mode == _STREAM_RLE:
            out.append(codes[0])
            continue
        if coded is None:
            encoder.encode(codes, writer)
        else:
            _write_custom_table(out, encoder.normalized, encoder.table_log)
            counters.table_builds += 1
            writer.write(int.from_bytes(coded.getvalue(), "little"), coded.bit_length)
        counters.entropy_symbols += len(codes)
    # Extra bits, packed per sequence in (ll, of, ml) order. A field with
    # no extra bits has value == baseline, so it adds nothing to the pack:
    # LL codes below 16 and ML codes below 32 are skipped, and an offset's
    # baseline is its top bit, its extra bits the ones below. The pack goes
    # to the writer once it holds `_PACKED_BITS`, so the writes follow the
    # bits written, not the sequence count.
    ll_table, ml_table = zparams.LL_TABLE, zparams.ML_TABLE
    packed = packed_bits = 0
    for ll_c, of_c, ml_c, ll, of, ml in zip(
        *code_streams, literal_lengths, offsets, match_lengths
    ):
        if ll_c > 15:
            baseline, bits = ll_table[ll_c]
            packed |= (ll - baseline) << packed_bits
            packed_bits += bits
        packed |= (of ^ 1 << of_c) << packed_bits
        packed_bits += of_c
        if ml_c > 31:
            baseline, bits = ml_table[ml_c]
            packed |= (ml - baseline) << packed_bits
            packed_bits += bits
        if packed_bits >= _PACKED_BITS:
            writer.write(packed, packed_bits)
            packed = packed_bits = 0
    writer.write(packed, packed_bits)
    encoded = writer.getvalue()
    counters.entropy_bits += writer.bit_length
    write_uvarint(out, len(encoded))
    out.extend(encoded)


def _decode_sequence_codes(
    payload: bytes, pos: int, counters: StageCounters
) -> Tuple[int, List[List[int]], Optional[BitReader], int]:
    """The LL, OF and ML code streams of a block's sequences section.

    Returns the sequence count, the three code lists, the reader
    positioned at the first sequence's extra bits, and the offset at which
    the section ends. A section of no sequences has no streams to read.
    """
    count, pos = read_uvarint(payload, pos)
    if count == 0:
        return 0, [], None, pos
    if count > zparams.MAX_BLOCK_SIZE:
        raise CorruptDataError("sequence count exceeds block limit")
    stream_plans = []  # (mode, decoder-or-symbol)
    for stream_index, (table, __, __) in enumerate(_STREAM_SPECS):
        if pos >= len(payload):
            raise CorruptDataError("truncated sequence stream header")
        mode = payload[pos]
        pos += 1
        if mode == _STREAM_RLE:
            if pos >= len(payload):
                raise CorruptDataError("truncated RLE stream symbol")
            symbol = payload[pos]
            pos += 1
            if symbol >= len(table):
                raise CorruptDataError("RLE code out of range")
            stream_plans.append((mode, symbol))
        elif mode == _STREAM_CUSTOM:
            normalized, table_log, pos = _read_custom_table(payload, pos, len(table))
            stream_plans.append((mode, FSEDecoder(normalized, table_log)))
        elif mode == _STREAM_PREDEFINED:
            stream_plans.append((mode, _predefined_decoder(stream_index)))
        else:
            raise CorruptDataError(f"unknown sequence stream mode {mode}")
    size, pos = read_uvarint(payload, pos)
    if pos + size > len(payload):
        raise CorruptDataError("truncated sequence bitstream")
    reader = BitReader(payload[pos : pos + size])
    code_streams: List[List[int]] = []
    try:
        for mode, plan in stream_plans:
            if mode == _STREAM_RLE:
                code_streams.append([plan] * count)
            else:
                code_streams.append(plan.decode(count, reader))
                counters.entropy_symbols_decoded += count
    except (EOFError, ValueError) as exc:
        raise CorruptDataError(f"bad sequence stream: {exc}") from None
    return count, code_streams, reader, pos + size


# --------------------------------------------------------------------------
# Block assembly


def encode_block(
    data: bytes, start: int, sequences: Sequences, counters: StageCounters
) -> bytes:
    """Serialize a parse of ``data[start:]`` into a compressed block body.

    Raises ``ValueError`` when the parse is not one the format can code.
    """
    count = check_sequences(
        sequences, len(data) - start, zparams.MIN_MATCH, _MAX_MATCH, _MAX_OFFSET
    )
    out = bytearray()
    _encode_literals(literal_bytes(data, start, sequences), out, counters)
    _encode_sequences(sequences, count, out, counters)
    return bytes(out)


def decode_block(
    payload: bytes, counters: StageCounters, history: bytes = b""
) -> bytes:
    """Decode one compressed block body; ``history`` seeds the window."""
    literals, pos = _decode_literals(payload, 0, counters)
    count, code_streams, reader, pos = _decode_sequence_codes(payload, pos, counters)
    if pos != len(payload):
        raise CorruptDataError("trailing bytes in compressed block")
    out = bytearray(history)
    base = len(out)
    lit_pos = 0
    literal_count = len(literals)
    # One pass per sequence: its extra bits are read from the window and
    # the sequence is executed at once, so no (ll, offset, ml) list stands
    # between the two halves.
    ll_table, of_table, ml_table = _LL_DECODE, _OF_DECODE, _ML_DECODE
    codes = zip(*code_streams)
    try:
        for start in range(0, count, _SEQUENCE_RUN):
            run = min(_SEQUENCE_RUN, count - start)
            # Past the end of the stream the window reads as zeros and
            # `skip` raises.
            window = reader.peek(run * _MAX_EXTRA_BITS)
            used = 0
            for ll_c, of_c, ml_c in islice(codes, run):
                ll, bits, mask = ll_table[ll_c]
                if bits:
                    ll += window >> used & mask
                    used += bits
                offset, bits, mask = of_table[of_c]
                offset += window >> used & mask
                used += bits
                ml, bits, mask = ml_table[ml_c]
                if bits:
                    ml += window >> used & mask
                    used += bits
                if ll:
                    literal_end = lit_pos + ll
                    if literal_end > literal_count:
                        raise CorruptDataError("literal run exceeds literals buffer")
                    out += literals[lit_pos:literal_end]
                    lit_pos = literal_end
                # `lz77.copy_match`, inlined with both of its guards
                source = len(out) - offset
                if source < 0 or offset <= 0:
                    raise CorruptDataError(
                        "match offset reaches outside the output so far"
                    )
                if offset >= ml:
                    out += out[source : source + ml]
                else:
                    out += (out[source:] * (ml // offset + 1))[:ml]
            reader.skip(used)
            # checked once a run, so a crafted block is stopped within one
            # run's matches of the bound and an honest one pays one
            # comparison per `_SEQUENCE_RUN` sequences
            if len(out) - base > zparams.MAX_BLOCK_SIZE:
                raise CorruptDataError("block regenerates more than a block holds")
    except EOFError as exc:
        raise CorruptDataError(f"bad sequence stream: {exc}") from None
    out += literals[lit_pos:]
    if len(out) - base > zparams.MAX_BLOCK_SIZE:
        raise CorruptDataError("block regenerates more than a block holds")
    # every literal is copied exactly once; matches make up the rest
    counters.literal_bytes_copied += literal_count
    counters.match_bytes_copied += len(out) - base - literal_count
    counters.sequences_decoded += count
    return bytes(out[base:])

"""LZ4 block format encoder/decoder.

A block is a series of sequences; each sequence is::

    token (1 byte: literal length in the high nibble, match length - 4 in
           the low nibble, 15 meaning "extended with 255-run bytes")
    [literal length extension bytes]
    literals
    offset (2 bytes, little-endian, 1..65535)
    [match length extension bytes]

The final sequence carries literals only: the decoder detects end-of-block by
input exhaustion after copying them, exactly like the reference format.
"""

from __future__ import annotations

from typing import List

from repro.codecs.base import CorruptDataError, StageCounters
from repro.codecs.lz77 import Token

MIN_MATCH = 4
MAX_OFFSET = 65535
_TOKEN_MAX = 15


def _append_length(out: bytearray, value: int) -> None:
    """Emit the 255-run extension of a nibble-overflow length."""
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def encode_block(
    data: bytes, start: int, tokens: List[Token], counters: StageCounters
) -> bytes:
    """Serialize a parse of ``data[start:]`` into LZ4 block bytes."""
    out = bytearray()
    position = start
    for index, token in enumerate(tokens):
        lit_len = token.literal_length
        match_len = token.match_length
        is_last = index == len(tokens) - 1
        if match_len == 0 and not is_last:
            raise ValueError("literal-only token before end of block")
        if match_len:
            if match_len < MIN_MATCH:
                raise ValueError(f"match length {match_len} below minimum")
            if not 1 <= token.offset <= MAX_OFFSET:
                raise ValueError(f"offset {token.offset} outside LZ4 range")
        lit_nibble = min(lit_len, _TOKEN_MAX)
        match_code = match_len - MIN_MATCH if match_len else 0
        match_nibble = min(match_code, _TOKEN_MAX)
        out.append((lit_nibble << 4) | (match_nibble if match_len else 0))
        if lit_nibble == _TOKEN_MAX:
            _append_length(out, lit_len - _TOKEN_MAX)
        out.extend(data[position : position + lit_len])
        position += lit_len
        counters.entropy_symbols += 1  # one token byte per sequence
        if match_len:
            out.extend(token.offset.to_bytes(2, "little"))
            if match_nibble == _TOKEN_MAX:
                _append_length(out, match_code - _TOKEN_MAX)
            position += match_len
    counters.entropy_bits += len(out) * 8
    return bytes(out)


def decode_block(
    payload: bytes, counters: StageCounters, history: bytes = b""
) -> bytes:
    """Decode one LZ4 block; ``history`` seeds the back-reference window."""
    out = bytearray(history)
    base = len(history)
    literal_bytes = sequences = 0
    pos = 0
    n = len(payload)
    while pos < n:
        token = payload[pos]
        pos += 1
        lit_len = token >> 4
        if lit_len == _TOKEN_MAX:
            while True:
                if pos >= n:
                    raise CorruptDataError("truncated literal length")
                extra = payload[pos]
                pos += 1
                lit_len += extra
                if extra != 255:
                    break
        if lit_len:
            literal_end = pos + lit_len
            if literal_end > n:
                raise CorruptDataError("literal run exceeds block")
            out += payload[pos:literal_end]
            pos = literal_end
            literal_bytes += lit_len
        if pos == n:
            break  # final, literals-only sequence
        if pos + 2 > n:
            raise CorruptDataError("truncated match offset")
        offset = payload[pos] | payload[pos + 1] << 8
        pos += 2
        if offset == 0:
            raise CorruptDataError("zero match offset")
        match_len = (token & 0x0F) + MIN_MATCH
        if match_len == _TOKEN_MAX + MIN_MATCH:
            while True:
                if pos >= n:
                    raise CorruptDataError("truncated match length")
                extra = payload[pos]
                pos += 1
                match_len += extra
                if extra != 255:
                    break
        # `lz77.copy_match`, inlined (offset 0 was rejected above)
        source = len(out) - offset
        if source < 0:
            raise CorruptDataError("match offset reaches before start of output")
        if offset >= match_len:
            out += out[source : source + match_len]
        else:
            out += (out[source:] * (match_len // offset + 1))[:match_len]
        sequences += 1
    counters.literal_bytes_copied += literal_bytes
    counters.match_bytes_copied += len(out) - base - literal_bytes
    counters.sequences_decoded += sequences
    return bytes(out[base:])

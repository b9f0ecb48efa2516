"""Shared LZ77 token model.

All three codecs parse input into the same intermediate representation the
paper describes for production LZ compressors: *literals* (bytes with no
match) and *sequences* (literal length, match length, offset). The codecs
differ only in which match finder produces the tokens and how the entropy
stage serializes them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Token:
    """One LZ77 sequence: a run of literals followed by a back-reference.

    A ``match_length`` of zero is only valid for the trailing token of a
    block and denotes "remaining literals, no match".
    """

    literal_length: int
    match_length: int
    offset: int

    def __post_init__(self) -> None:
        if self.literal_length < 0:
            raise ValueError("literal_length must be non-negative")
        if self.match_length < 0:
            raise ValueError("match_length must be non-negative")
        if self.match_length > 0 and self.offset <= 0:
            raise ValueError("matches require a positive offset")


def match_length(data: bytes, back: int, front: int, limit: int) -> int:
    """Length of the common run ``data[back:]`` vs ``data[front:]``, capped.

    ``back < front`` and ``front + limit <= len(data)`` are required. Both
    regions exist in ``data`` during parsing, so comparing them directly is
    sound even for overlapping (self-referential) matches: byte equality on
    the original buffer is exactly the periodic-extension condition the
    decoder's sequential copy reproduces.

    The compare is bulk: two windows are read as little-endian integers and
    XORed, and the lowest set bit of the difference is the first differing
    byte. Most candidates differ within the first 32 bytes, so that window
    is XORed outright; longer runs advance by 256-byte equality checks.
    """
    diff = int.from_bytes(data[back : back + 32], "little") ^ int.from_bytes(
        data[front : front + 32], "little"
    )
    if diff:
        length = ((diff & -diff).bit_length() - 1) >> 3
        return length if length < limit else limit
    length = 32
    while length < limit:
        stop = length + 256
        if stop > limit:
            stop = limit
        ours = data[back + length : back + stop]
        theirs = data[front + length : front + stop]
        if ours != theirs:
            diff = int.from_bytes(ours, "little") ^ int.from_bytes(theirs, "little")
            return length + (((diff & -diff).bit_length() - 1) >> 3)
        length = stop
    return limit


def copy_match(out: bytearray, offset: int, length: int) -> None:
    """Append ``length`` bytes copied from ``offset`` back, in place.

    Handles the overlapping case (offset < length) with run replication, the
    semantics every LZ decoder must implement for RLE-style matches.
    """
    if offset <= 0:
        raise ValueError("match offset must be positive")
    src = len(out) - offset
    if src < 0:
        raise ValueError("match offset reaches before start of output")
    if offset >= length:
        out += out[src : src + length]
    else:
        out += (out[src:] * (length // offset + 1))[:length]

"""Shared LZ77 sequence model.

All three codecs parse input into the same intermediate representation the
paper describes for production LZ compressors: *literals* (bytes with no
match) and *sequences* (literal length, match length, offset). The codecs
differ only in which match finder produces the sequences and how the
entropy stage serializes them.

A parse is three parallel int lists, ``(literal_lengths, match_lengths,
offsets)``: entry ``k`` is a run of ``literal_lengths[k]`` literals followed
by a copy of ``match_lengths[k]`` bytes from ``offsets[k]`` back. Only the
last entry may carry no match (``match 0, offset 0``): the literals that
remain after the last match. Nothing is checked per entry as it is built;
each encoder checks the whole parse once with :func:`check_sequences`.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Tuple

#: ``(literal_lengths, match_lengths, offsets)``, one entry per sequence
Sequences = Tuple[List[int], List[int], List[int]]


def check_sequences(
    sequences: Sequences, size: int, min_match: int, max_match: int, max_offset: int
) -> int:
    """Raise ``ValueError`` unless ``sequences`` is a parse of ``size`` bytes
    that a format with these limits can code; return how many of its
    entries carry a match.

    Every entry but a trailing literal-only one must hold a match of
    ``min_match..max_match`` bytes at an offset of ``1..max_offset``, no
    literal length may be negative, and the literals and matches together
    must cover exactly ``size`` bytes. Each bound is one ``min``, ``max`` or
    ``sum`` over a list, so the check costs no Python statement per entry.
    """
    literal_lengths, match_lengths, offsets = sequences
    count = len(match_lengths)
    if len(literal_lengths) != count or len(offsets) != count:
        raise ValueError("sequence lists differ in length")
    matches = 0
    if count:
        if min(literal_lengths) < 0:
            raise ValueError("literal lengths must be non-negative")
        matches = count if match_lengths[-1] else count - 1
    if matches:
        shortest = min(islice(match_lengths, matches))
        if not shortest:
            raise ValueError("literal-only entry before the end of the block")
        if shortest < min_match or max(islice(match_lengths, matches)) > max_match:
            raise ValueError(f"match lengths must lie in {min_match}..{max_match}")
        if min(islice(offsets, matches)) < 1:
            raise ValueError("matches require a positive offset")
        if max(islice(offsets, matches)) > max_offset:
            raise ValueError(f"match offsets must not exceed {max_offset}")
    covered = sum(literal_lengths) + sum(match_lengths)
    if covered != size:
        raise ValueError(f"the parse covers {covered} bytes, not {size}")
    return matches


def literal_bytes(data: bytes, start: int, sequences: Sequences) -> bytes:
    """The literals of a parse of ``data[start:]``, concatenated in order."""
    literal_lengths, match_lengths, __ = sequences
    literals = bytearray()
    position = start
    for literal_length, match_length in zip(literal_lengths, match_lengths):
        if literal_length:
            literals += data[position : position + literal_length]
        position += literal_length + match_length
    return bytes(literals)


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

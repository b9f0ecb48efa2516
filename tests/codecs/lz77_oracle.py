"""Pure oracles for LZ77 parses, independent of any codec format.

A match finder's parse, ``(literal_lengths, match_lengths, offsets)``, is
checked against the input it claims to describe: :func:`validate_parse`
walks the parse byte by byte, :func:`reconstruct` rebuilds the input from
the parse plus its literals, and :func:`tokens_cover` counts the bytes a
parse represents.
"""

from __future__ import annotations

from repro.codecs.lz77 import Sequences


def tokens_cover(sequences: Sequences) -> int:
    """Total number of input bytes represented by ``sequences``."""
    literal_lengths, match_lengths, __ = sequences
    return sum(literal_lengths) + sum(match_lengths)


def reconstruct(sequences: Sequences, literals: bytes) -> bytes:
    """Rebuild the original bytes from a parse plus the literal byte stream,
    independently of any codec format."""
    out = bytearray()
    lit_pos = 0
    for literal_length, match_length, offset in zip(*sequences):
        out.extend(literals[lit_pos : lit_pos + literal_length])
        lit_pos += literal_length
        if match_length:
            start = len(out) - offset
            if start < 0:
                raise ValueError("offset reaches before start of output")
            for i in range(match_length):
                out.append(out[start + i])
    return bytes(out)


def validate_parse(sequences: Sequences, data: bytes, history_length: int = 0) -> None:
    """Assert that a parse is a faithful description of ``data``.

    ``history_length`` is the size of the dictionary prefix the parser was
    allowed to reference. Raises ``ValueError`` on the first inconsistency.
    """
    literal_lengths, match_lengths, offsets = sequences
    if not len(literal_lengths) == len(match_lengths) == len(offsets):
        raise ValueError("sequence lists differ in length")
    position = history_length
    full = data  # data includes the history prefix at the front
    for index, (literal_length, match_length, offset) in enumerate(zip(*sequences)):
        if literal_length < 0 or match_length < 0:
            raise ValueError(f"entry {index}: negative length")
        position += literal_length
        if match_length:
            if not 0 < offset <= position:
                raise ValueError(f"entry {index}: offset {offset} outside 1..{position}")
            for i in range(match_length):
                if full[position + i] != full[position - offset + i]:
                    raise ValueError(f"entry {index}: match mismatch at byte {i}")
            position += match_length
    if position != len(full):
        raise ValueError(
            f"parse covers {position - history_length} bytes, "
            f"input has {len(full) - history_length}"
        )

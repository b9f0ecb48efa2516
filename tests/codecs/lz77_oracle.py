"""Pure oracles for LZ77 parses, independent of any codec format.

A match finder's tokens are checked against the input they claim to
describe: :func:`validate_parse` walks the parse byte by byte,
:func:`reconstruct` rebuilds the input from tokens plus literals, and
:func:`tokens_cover` counts the bytes a parse represents.
"""

from __future__ import annotations

from typing import List

from repro.codecs.lz77 import Token


def tokens_cover(tokens: List[Token]) -> int:
    """Total number of input bytes represented by ``tokens``."""
    return sum(t.literal_length + t.match_length for t in tokens)


def reconstruct(tokens: List[Token], literals: bytes) -> bytes:
    """Rebuild the original bytes from tokens plus the literal byte stream,
    independently of any codec format."""
    out = bytearray()
    lit_pos = 0
    for token in tokens:
        out.extend(literals[lit_pos : lit_pos + token.literal_length])
        lit_pos += token.literal_length
        if token.match_length:
            start = len(out) - token.offset
            if start < 0:
                raise ValueError("offset reaches before start of output")
            for i in range(token.match_length):
                out.append(out[start + i])
    return bytes(out)


def validate_parse(tokens: List[Token], data: bytes, history_length: int = 0) -> None:
    """Assert that a parse is a faithful description of ``data``.

    ``history_length`` is the size of the dictionary prefix the parser was
    allowed to reference. Raises ``ValueError`` on the first inconsistency.
    """
    position = history_length
    full = data  # data includes the history prefix at the front
    for index, token in enumerate(tokens):
        position += token.literal_length
        if token.match_length:
            if token.match_length and token.offset > position:
                raise ValueError(f"token {index}: offset {token.offset} exceeds position {position}")
            for i in range(token.match_length):
                if full[position + i] != full[position - token.offset + i]:
                    raise ValueError(f"token {index}: match mismatch at byte {i}")
            position += token.match_length
    if position != len(full):
        raise ValueError(
            f"parse covers {position - history_length} bytes, "
            f"input has {len(full) - history_length}"
        )

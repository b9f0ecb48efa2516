"""Match-finder interface and shared position hashing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.codecs.base import StageCounters
from repro.codecs.lz77 import Token

#: Knuth multiplicative hashing constant (2654435761 = 2^32 / phi).
_HASH_MULTIPLIER = np.uint32(2654435761)


@dataclass(frozen=True)
class MatchFinderParams:
    """Tunable parameters of the LZ match-finding stage.

    These mirror the knobs the paper says compression levels control
    indirectly: the match window, hash/chain table sizes, search depth, and
    the parsing strategy.
    """

    window_log: int = 17
    hash_log: int = 15
    search_depth: int = 8
    min_match: int = 4
    #: stop searching once a match at least this long is found ("nice length")
    target_length: int = 64
    #: 0 = greedy, 1 = lazy, 2 = two-step lazy
    lazy_steps: int = 0
    #: skip-step growth for the fast strategy (larger = faster, worse ratio)
    acceleration: int = 1
    strategy: str = "greedy"
    #: hard cap on emitted match length (258 for DEFLATE, unlimited otherwise)
    max_match: int = 1 << 30
    #: hard cap on offsets beyond the window (65535 for the LZ4 format)
    max_offset: int = 1 << 30

    @property
    def window_size(self) -> int:
        return 1 << self.window_log

    def effective_max_offset(self) -> int:
        return min(self.window_size, self.max_offset)


def hash_positions(data: bytes, hash_log: int, hash_bytes: int) -> List[int]:
    """Vectorized multiplicative hash of every position's first bytes.

    Returns a list of length ``max(0, len(data) - hash_bytes + 1)`` with
    values in ``[0, 2**hash_log)``. Positions too close to the end have no
    hash (the parsers stop before them). The hashing is one numpy pass; the
    result is a plain list because the parsers index it one position at a
    time, where a list hands back an int and an array boxes a scalar.
    """
    if hash_bytes < 3 or hash_bytes > 4:
        raise ValueError("hash_bytes must be 3 or 4")
    n = len(data)
    if n < hash_bytes:
        return []
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    value = arr[: n - hash_bytes + 1].copy()
    for k in range(1, hash_bytes):
        value |= arr[k : n - hash_bytes + 1 + k] << np.uint32(8 * k)
    hashed = (value * _HASH_MULTIPLIER) >> np.uint32(32 - hash_log)
    return hashed.tolist()


class MatchFinder:
    """Parses ``data[start:]`` into LZ77 tokens.

    ``data[:start]`` is history the parser may reference (the block's window
    prefix, or an out-of-band dictionary); it never re-emits those bytes.
    """

    def parse(
        self,
        data: bytes,
        start: int,
        params: MatchFinderParams,
        counters: Optional[StageCounters] = None,
    ) -> List[Token]:
        raise NotImplementedError

    @staticmethod
    def _finish(tokens: List[Token], anchor: int, end: int) -> List[Token]:
        """Append the trailing literals-only token when bytes remain."""
        if end > anchor:
            tokens.append(Token(end - anchor, 0, 0))
        return tokens

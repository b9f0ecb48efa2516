"""Match-finder interface and shared position hashing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

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


def _hash_array(data: bytes, hash_log: int, hash_bytes: int) -> np.ndarray:
    """The multiplicative hash of every position's first bytes, one numpy pass."""
    if hash_bytes < 3 or hash_bytes > 4:
        raise ValueError("hash_bytes must be 3 or 4")
    n = len(data)
    if n < hash_bytes:
        return np.empty(0, dtype=np.uint32)
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    value = arr[: n - hash_bytes + 1].copy()
    for k in range(1, hash_bytes):
        value |= arr[k : n - hash_bytes + 1 + k] << np.uint32(8 * k)
    return (value * _HASH_MULTIPLIER) >> np.uint32(32 - hash_log)


def hash_positions(data: bytes, hash_log: int, hash_bytes: int) -> List[int]:
    """Vectorized multiplicative hash of every position's first bytes.

    Returns a list of length ``max(0, len(data) - hash_bytes + 1)`` with
    values in ``[0, 2**hash_log)``. Positions too close to the end have no
    hash (the parsers stop before them). The hashing is one numpy pass; the
    result is a plain list because the parsers index it one position at a
    time, where a list hands back an int and an array boxes a scalar.
    """
    return _hash_array(data, hash_log, hash_bytes).tolist()


def _bucket_order(hashed: np.ndarray, hash_log: int) -> Tuple[np.ndarray, np.ndarray]:
    """Positions sorted by (hash, position), and which of them, in that
    order, is the last of its bucket."""
    # numpy's stable argsort is a radix sort on 16-bit keys and a several
    # times slower merge sort on wider ones, so a wider hash is sorted 16
    # bits at a time, low digit first.
    order = np.argsort(hashed.astype(np.uint16), kind="stable")
    for shift in range(16, hash_log, 16):
        digit = (hashed >> np.uint32(shift)).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
    in_order = hashed[order]
    last = np.ones(hashed.size, dtype=bool)
    last[:-1] = in_order[1:] != in_order[:-1]
    return order, last


def chain_links(data: bytes, hash_log: int, hash_bytes: int) -> List[int]:
    """Hash chains of the whole buffer: ``links[p]`` is the nearest position
    below ``p`` with the same hash, or -1.

    A parser that has inserted every position below ``i`` holds exactly
    these chains for ``i``, whatever it matched on the way, so they are
    built in one pass (hash, sort by bucket, point each position at its
    predecessor in the bucket) instead of one insertion per byte. As long
    as :func:`hash_positions`, and a list for the same reason.
    """
    hashed = _hash_array(data, hash_log, hash_bytes)
    order, last = _bucket_order(hashed, hash_log)
    links = np.full(hashed.size, -1, dtype=np.int64)
    links[order[1:]] = np.where(last[:-1], -1, order[:-1])
    return links.tolist()


def history_table(data: bytes, start: int, hash_log: int, hash_bytes: int) -> List[int]:
    """The single-slot table after inserting every position below ``start``:
    per bucket the last such position, or -1.

    What the single-hash finder holds when it reaches ``start``; past that
    its table depends on which positions the parse visits.
    """
    # A position's hash reads `hash_bytes` bytes, so the last ones before
    # `start` look past it (and have no hash when the buffer ends first).
    hashed = _hash_array(data[: start + hash_bytes - 1], hash_log, hash_bytes)
    order, last = _bucket_order(hashed, hash_log)
    tails = order[last]
    table = np.full(1 << hash_log, -1, dtype=np.int64)
    table[hashed[tails]] = tails
    return table.tolist()


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

"""Greedy single-slot hash-table match finder (the LZ4 / zstd-fast strategy)."""

from __future__ import annotations

from typing import List, Optional

from repro.codecs.base import StageCounters
from repro.codecs.lz77 import Token, match_length
from repro.codecs.matchfinders.base import (
    MatchFinder,
    MatchFinderParams,
    hash_positions,
    history_table,
)


class SingleHashMatchFinder(MatchFinder):
    """One candidate per hash bucket, greedy acceptance.

    With ``acceleration > 1`` the scan skips ahead progressively after
    consecutive misses, exactly the mechanism behind LZ4's acceleration
    factor and Zstandard's negative compression levels: less work per input
    byte at the cost of missed matches.
    """

    def parse(
        self,
        data: bytes,
        start: int,
        params: MatchFinderParams,
        counters: Optional[StageCounters] = None,
    ) -> List[Token]:
        counters = counters if counters is not None else StageCounters()
        n = len(data)
        min_match = params.min_match
        hash_bytes = min(4, min_match)
        hashes = hash_positions(data, params.hash_log, hash_bytes)
        # One slot per bucket, holding the latest position the scan visited;
        # history is indexed whole, so matches can reach a dictionary.
        table = (
            history_table(data, start, params.hash_log, hash_bytes)
            if start
            else [-1] * (1 << params.hash_log)
        )
        counters.setup_entries += len(table)
        max_offset = params.effective_max_offset()
        max_match = params.max_match
        acceleration = params.acceleration

        # Counters ride in locals and are flushed once after the loop; every
        # step scans one position and probes one bucket.
        steps = candidates = compared = literal_total = 0

        tokens: List[Token] = []
        anchor = start
        i = start
        misses = 0
        # Searching stops where a minimum match or a full hash no longer fits.
        search_end = min(n - min_match + 1, len(hashes))
        while i < search_end:
            h = hashes[i]
            candidate = table[h]
            table[h] = i
            steps += 1
            if candidate >= 0 and i - candidate <= max_offset:
                candidates += 1
                limit = n - i
                if limit > max_match:
                    limit = max_match
                length = match_length(data, candidate, i, limit)
                compared += length + 1
                if length >= min_match:
                    tokens.append(Token(i - anchor, length, i - candidate))
                    literal_total += i - anchor
                    i += length
                    anchor = i
                    misses = 0
                    continue
            # LZ4-style acceleration: step grows with consecutive misses,
            # scaled by the acceleration factor (skip strength 6).
            misses += 1
            i += 1 + ((misses * acceleration) >> 6)

        counters.positions_scanned += steps
        counters.hash_probes += steps
        counters.match_candidates += candidates
        counters.match_bytes_compared += compared
        counters.sequences_emitted += len(tokens)
        counters.literals_emitted += literal_total
        return self._finish(tokens, anchor, n)

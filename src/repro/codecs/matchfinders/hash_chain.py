"""Hash-chain match finder with greedy, lazy, and two-step-lazy parsing."""

from __future__ import annotations

from typing import List, Optional

from repro.codecs.base import StageCounters
from repro.codecs.lz77 import Token, match_length
from repro.codecs.matchfinders.base import (
    MatchFinder,
    MatchFinderParams,
    chain_links,
)


class HashChainMatchFinder(MatchFinder):
    """Chains every position per hash bucket; probes up to ``search_depth``.

    Lazy evaluation (``lazy_steps`` = 1 or 2) defers a found match to check
    whether starting one or two bytes later yields a longer one -- the
    mid-level strategies of zlib and Zstandard.
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
        # A search at `i` may reach every position below `i` (history
        # included, so matches can reach a dictionary), whatever was matched
        # on the way: the chains are a function of the buffer alone.
        links = chain_links(data, params.hash_log, min(4, min_match))
        # The modeled table: a head per bucket and a link per position.
        counters.setup_entries += (1 << params.hash_log) + n
        max_offset = params.effective_max_offset()
        max_match = params.max_match
        target = params.target_length
        depth = params.search_depth
        lazy_steps = params.lazy_steps
        # Searching stops where a minimum match or a full hash no longer fits.
        search_end = min(n - min_match + 1, len(links))

        # Counters ride in locals and are flushed once after the loop; every
        # search scans one position and probes one bucket, so one tally
        # serves both `positions_scanned` and `hash_probes`.
        searches = candidates = compared = literal_total = 0

        tokens: List[Token] = []
        anchor = start
        i = start
        # A match found one position back, waiting to see whether starting
        # here is longer (lazy evaluation); `steps` deferrals so far.
        held_length = held_offset = steps = 0
        while i < search_end:
            # Best chain match at `i`: up to `depth` candidates, newest first.
            searches += 1
            limit = n - i
            if limit > max_match:
                limit = max_match
            length = min_match - 1
            offset = 0
            candidate = links[i]
            lowest = i - max_offset
            if lowest < 0:
                lowest = 0
            probes = depth
            # Quick rejection: a longer match must agree on the byte just
            # past the current best (always in range: the search ends once
            # `limit` is reached).
            beyond = data[i + length]
            while candidate >= lowest and probes:
                probes -= 1
                if data[candidate + length] == beyond:
                    run = match_length(data, candidate, i, limit)
                    compared += run + 1
                    if run > length:
                        length = run
                        offset = i - candidate
                        if run >= target or run >= limit:
                            break
                        beyond = data[i + length]
                candidate = links[candidate]
            candidates += depth - probes
            if not offset:
                length = 0

            if held_length:
                if length > held_length:
                    steps += 1
                else:
                    # The earlier start stands; emit it without looking on.
                    i -= 1
                    length, offset = held_length, held_offset
                    steps = lazy_steps
                held_length = 0
            elif not length:
                i += 1
                continue
            if steps < lazy_steps and i + 1 < search_end:
                held_length, held_offset = length, offset
                i += 1
                continue
            tokens.append(Token(i - anchor, length, offset))
            literal_total += i - anchor
            steps = 0
            i += length
            anchor = i

        counters.positions_scanned += searches
        counters.hash_probes += searches
        counters.match_candidates += candidates
        counters.match_bytes_compared += compared
        counters.sequences_emitted += len(tokens)
        counters.literals_emitted += literal_total
        return self._finish(tokens, anchor, n)

"""Dynamic-programming ("optimal") parser for high compression levels.

Finds a near-minimal-cost parse under an estimated bit-price model, the
btopt-style strategy the paper describes as "slow dynamic programming
algorithms which attempt to find the optimal encoding". Match candidates come
from full hash chains; transitions are evaluated only at a candidate's full
length and at match-length price-bucket boundaries, which keeps the scan
near-linear. That pruning is not lossless: a cheaper path can end a match at
a length in between. Against brute force over every (offset, length) edge
the parse is at most 3 bits dearer on every string over two letters of up
to 12 bytes, and equal once the brute force is held to the same lengths
(``tests/codecs/test_optimal_parser.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from repro.codecs.base import StageCounters
from repro.codecs.lz77 import Token, match_length
from repro.codecs.matchfinders.base import (
    MatchFinder,
    MatchFinderParams,
    chain_links,
)

_INFINITY = float("inf")


def literal_price() -> int:
    """Estimated cost of one literal byte, in bits (entropy-coded)."""
    return 6


def match_price(length: int, offset: int) -> int:
    """Estimated cost of a match, in bits.

    Offset costs its log2 (FSE code + extra bits); length costs a small code
    plus log2-scaled extra bits; 4 bits of fixed sequence overhead.
    """
    return 4 + offset.bit_length() + 4 + max(0, (length - 3).bit_length() - 3)


@lru_cache(maxsize=4096)
def _length_breakpoints(min_len: int, max_len: int) -> Tuple[Tuple[int, int], ...]:
    """Lengths worth evaluating, each with its offset-free price.

    The lengths are the bucket boundaries of the length price; the price
    beside each is ``match_price(length, 0)``, to which a candidate adds
    the bit length of its offset.
    """
    lengths = {max_len, min_len}
    # Price changes when (length - 3).bit_length() crosses a power of two.
    boundary = 8
    while boundary <= max_len:
        if boundary >= min_len:
            lengths.add(boundary)
        if boundary + 3 <= max_len and boundary + 3 >= min_len:
            lengths.add(boundary + 3)
        boundary <<= 1
    return tuple((length, match_price(length, 0)) for length in sorted(lengths))


class OptimalMatchFinder(MatchFinder):
    """Shortest-path parse over the block under the bit-price model."""

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
        # included, so matches can reach a dictionary prefix): the chains
        # are a function of the buffer alone.
        links = chain_links(data, params.hash_log, min(4, min_match))
        # The modeled tables: chain heads and links, plus the DP arrays.
        counters.setup_entries += (1 << params.hash_log) + 3 * n
        max_offset = params.effective_max_offset()
        max_match = params.max_match
        depth = params.search_depth
        # Searching stops where a minimum match or a full hash no longer fits.
        search_end = min(n - min_match + 1, len(links))

        size = n - start
        cost = [_INFINITY] * (size + 1)
        cost[0] = 0.0
        # The step that reaches j on the cheapest known path: a match of
        # step_length[j] bytes at step_offset[j], or a literal (length 0).
        step_length = [-1] * (size + 1)
        step_offset = [0] * (size + 1)
        lit_price = literal_price()

        # Past a match this long we stop searching until the match ends --
        # the "sufficient length" shortcut of btopt-style parsers, without
        # which RLE-like data degenerates to quadratic scanning.
        sufficient = 512
        search_resume = start

        # Counters ride in locals and are flushed once after the loop; every
        # search scans one position and probes one bucket.
        searches = candidates = compared = 0

        for i in range(start, n):
            j = i - start
            here = cost[j]
            if here == _INFINITY:
                continue
            # Literal transition.
            if here + lit_price < cost[j + 1]:
                cost[j + 1] = here + lit_price
                step_length[j + 1] = 0
            # Inside a sufficiently long match nothing is searched.
            if search_resume <= i < search_end:
                searches += 1
                candidate = links[i]
                lowest = i - max_offset
                if lowest < 0:
                    lowest = 0
                limit = n - i
                if limit > max_match:
                    limit = max_match
                enough = limit if limit < sufficient else sufficient
                probes = depth
                best_seen = min_match - 1
                # Quick rejection: a candidate worth pricing agrees on the
                # byte just past the best so far (in range: the search ends
                # once `limit` is reached).
                beyond = data[i + best_seen]
                while candidate >= lowest and probes:
                    probes -= 1
                    if data[candidate + best_seen] == beyond:
                        length = match_length(data, candidate, i, limit)
                        compared += length + 1
                        if length >= min_match:
                            offset = i - candidate
                            reach = here + offset.bit_length()
                            for ml, price in _length_breakpoints(min_match, length):
                                if reach + price < cost[j + ml]:
                                    cost[j + ml] = reach + price
                                    step_length[j + ml] = ml
                                    step_offset[j + ml] = offset
                            if length > best_seen:
                                best_seen = length
                                if length >= enough:
                                    break
                                beyond = data[i + length]
                    candidate = links[candidate]
                candidates += depth - probes
                if best_seen >= sufficient:
                    search_resume = i + best_seen

        counters.positions_scanned += searches
        counters.hash_probes += searches
        counters.match_candidates += candidates
        counters.match_bytes_compared += compared

        # Walk the steps back from the end, then emit forward.
        steps: List[Tuple[int, int]] = []
        j = size
        while j > 0:
            ml = step_length[j]
            if ml < 0:
                raise AssertionError("optimal parse lost the path")
            steps.append((ml, step_offset[j]))
            j -= ml or 1
        steps.reverse()

        tokens: List[Token] = []
        literal_run = 0
        for ml, offset in steps:
            if ml == 0:
                literal_run += 1
            else:
                tokens.append(Token(literal_run, ml, offset))
                counters.literals_emitted += literal_run
                literal_run = 0
        counters.sequences_emitted += len(tokens)
        if literal_run:
            tokens.append(Token(literal_run, 0, 0))
        return tokens

"""The optimal parser against brute force under its own price model.

Bit-Optimal LZ (PAPERS.md) defines an optimal parse relative to the
encoder's cost function: the cheapest path through the graph whose edges
are one literal, or one (offset, length) copy that the buffer allows.
``OptimalMatchFinder`` relaxes a candidate's edges only at the lengths of
``_length_breakpoints``, so it is compared with two oracles on every string
over ``{a, b}`` of at most 12 bytes:

- against every edge, it may lose a few bits (the length pruning is *not*
  lossless: a path can want to stop a match at a length that is neither a
  price boundary nor the candidate's full length), and the gap is bounded
  and its census pinned;
- against the same edges restricted to the breakpoint lengths, it loses
  nothing: the chain walk (static ``chain_links``, quick rejection,
  early stop at the end of the buffer) hands the DP every candidate that
  matters.
"""

from collections import Counter
from itertools import product

from repro.codecs.matchfinders import MatchFinderParams, OptimalMatchFinder
from repro.codecs.matchfinders.optimal import (
    _length_breakpoints,
    literal_price,
    match_price,
)

from lz77_oracle import validate_parse

PARAMS = MatchFinderParams(
    min_match=3, hash_log=10, window_log=10, search_depth=64, strategy="optimal"
)
MAX_LENGTH = 12


def _parse_price(data: bytes) -> int:
    sequences = OptimalMatchFinder().parse(data, 0, PARAMS)
    validate_parse(sequences, data)
    return sum(
        literal_length * literal_price()
        + (match_price(match_length, offset) if match_length else 0)
        for literal_length, match_length, offset in zip(*sequences)
    )


def _cheapest_path(data: bytes, lengths_worth_trying) -> int:
    """Shortest path over literals and every (offset, length) copy whose
    length ``lengths_worth_trying(longest)`` yields for its offset."""
    n = len(data)
    cost = [0] + [float("inf")] * n
    for i in range(n):
        cost[i + 1] = min(cost[i + 1], cost[i] + literal_price())
        for offset in range(1, i + 1):
            longest = 0
            while i + longest < n and data[i + longest] == data[i + longest - offset]:
                longest += 1
            if longest < PARAMS.min_match:
                continue
            for length in lengths_worth_trying(longest):
                price = cost[i] + match_price(length, offset)
                cost[i + length] = min(cost[i + length], price)
    return cost[n]


def _every_length(longest: int):
    return range(PARAMS.min_match, longest + 1)


def _breakpoint_lengths(longest: int):
    return [length for length, __ in _length_breakpoints(PARAMS.min_match, longest)]


def _all_strings():
    for size in range(MAX_LENGTH + 1):
        for letters in product(b"ab", repeat=size):
            yield bytes(letters)


def test_gap_to_brute_force_is_bounded_and_pinned():
    gaps = Counter()
    for data in _all_strings():
        gaps[_parse_price(data) - _cheapest_path(data, _every_length)] += 1
    assert sum(gaps.values()) == 8191
    # never better than the oracle, never more than 3 bits worse
    assert min(gaps) == 0 and max(gaps) == 3
    assert gaps == {0: 8071, 1: 60, 2: 34, 3: 26}


def test_known_suboptimal_string():
    data = b"aabaabaaaa"
    assert _parse_price(data) == 40
    assert _cheapest_path(data, _every_length) == 37
    assert _cheapest_path(data, _breakpoint_lengths) == 40


def test_no_gap_once_the_oracle_is_held_to_the_breakpoints():
    for data in _all_strings():
        assert _parse_price(data) == _cheapest_path(data, _breakpoint_lengths), data

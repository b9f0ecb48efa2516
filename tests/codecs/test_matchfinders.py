"""Match finder tests: every strategy must produce valid, useful parses."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs.base import StageCounters
from repro.codecs.matchfinders import (
    HashChainMatchFinder,
    MatchFinderParams,
    OptimalMatchFinder,
    SingleHashMatchFinder,
    chain_links,
    finder_for_strategy,
    hash_positions,
    history_table,
)

from lz77_oracle import tokens_cover, validate_parse

_FINDERS = [
    (SingleHashMatchFinder(), MatchFinderParams(strategy="fast")),
    (HashChainMatchFinder(), MatchFinderParams(strategy="greedy", search_depth=8)),
    (
        HashChainMatchFinder(),
        MatchFinderParams(strategy="lazy", search_depth=8, lazy_steps=1),
    ),
    (
        HashChainMatchFinder(),
        MatchFinderParams(strategy="lazy2", search_depth=16, lazy_steps=2),
    ),
    (OptimalMatchFinder(), MatchFinderParams(strategy="optimal", search_depth=8)),
]

_SAMPLES = [
    b"",
    b"abc",
    b"aaaaaaaaaaaaaaaaaaaaaaaa",
    b"abcabcabcabcabcabcabcabc",
    b"the cat sat on the mat. the cat sat on the mat again.",
    bytes(range(256)),
    b"".join(b"key_%d=value_%d;" % (i, i % 9) for i in range(100)),
]


class TestHashPositions:
    def test_length(self):
        hashes = hash_positions(b"abcdefgh", hash_log=12, hash_bytes=4)
        assert len(hashes) == 5

    def test_short_input(self):
        assert len(hash_positions(b"ab", hash_log=12, hash_bytes=4)) == 0

    def test_range(self):
        hashes = hash_positions(b"abcdefgh" * 10, hash_log=8, hash_bytes=4)
        assert min(hashes) >= 0
        assert max(hashes) < 256

    def test_equal_prefixes_collide(self):
        hashes = hash_positions(b"abcdXabcd", hash_log=14, hash_bytes=4)
        assert hashes[0] == hashes[5]

    def test_invalid_hash_bytes(self):
        with pytest.raises(ValueError):
            hash_positions(b"abc", hash_log=10, hash_bytes=5)


def _chain_buffers():
    rng = random.Random(20)
    return {
        "empty": b"",
        "one-byte": b"x",
        # either side of the first hashable position, for 3 and 4 hash bytes
        "two-bytes": b"ab",
        "three-bytes": b"aba",
        "four-bytes": b"abab",
        "all-equal": b"\x00" * 4096,
        "random": rng.randbytes(4096),
        "low-entropy": bytes(rng.choice(b"abc ") for _ in range(4096)),
        "80KiB": b"".join(
            b"row %d of %d;" % (rng.randrange(500), i % 97) for i in range(6000)
        )[: 80 * 1024],
    }


@pytest.mark.parametrize("hash_log", [6, 15, 16, 17, 19])
@pytest.mark.parametrize("hash_bytes", [3, 4])
@pytest.mark.parametrize("data", _chain_buffers().values(), ids=_chain_buffers())
class TestChainLinks:
    """``chain_links`` and ``history_table`` against the per-position
    insertion loops they stand for."""

    def test_equals_insertion_loop(self, data, hash_bytes, hash_log):
        hashes = hash_positions(data, hash_log, hash_bytes)
        head = [-1] * (1 << hash_log)
        prev = [-1] * len(hashes)
        for pos, h in enumerate(hashes):
            prev[pos] = head[h]
            head[h] = pos
        assert chain_links(data, hash_log, hash_bytes) == prev

    def test_links_point_back_within_the_bucket(self, data, hash_bytes, hash_log):
        hashes = hash_positions(data, hash_log, hash_bytes)
        links = chain_links(data, hash_log, hash_bytes)
        assert len(links) == len(hashes)
        for pos, link in enumerate(links):
            assert -1 <= link < pos
            assert link < 0 or hashes[link] == hashes[pos]

    def test_history_table_equals_insertion_loop(self, data, hash_bytes, hash_log):
        hashes = hash_positions(data, hash_log, hash_bytes)
        for start in sorted({0, 1, len(data) // 2, max(0, len(data) - 1), len(data)}):
            table = [-1] * (1 << hash_log)
            for pos, h in enumerate(hashes[:start]):
                table[h] = pos
            assert history_table(data, start, hash_log, hash_bytes) == table, start


@pytest.mark.parametrize("finder,params", _FINDERS, ids=lambda v: getattr(v, "strategy", type(v).__name__))
class TestParses:
    @pytest.mark.parametrize("data", _SAMPLES, ids=range(len(_SAMPLES)))
    def test_parse_is_valid_and_covers_input(self, finder, params, data):
        tokens = finder.parse(data, 0, params)
        assert tokens_cover(tokens) == len(data)
        validate_parse(tokens, data)

    def test_finds_repetition(self, finder, params):
        data = b"0123456789" * 30
        tokens = finder.parse(data, 0, params)
        matched = sum(t.match_length for t in tokens)
        assert matched > len(data) // 2

    def test_no_matches_in_unique_bytes(self, finder, params):
        data = bytes(range(200))
        tokens = finder.parse(data, 0, params)
        assert all(t.match_length == 0 or t.offset > 0 for t in tokens)

    def test_counters_populated(self, finder, params):
        counters = StageCounters()
        finder.parse(b"hello hello hello hello", 0, params, counters)
        assert counters.positions_scanned > 0
        assert counters.hash_probes > 0

    def test_respects_max_offset(self, finder, params):
        from dataclasses import replace

        tight = replace(params, max_offset=8)
        data = b"abcdefgh" + b"X" * 32 + b"abcdefgh"
        tokens = finder.parse(data, 0, tight)
        assert all(t.offset <= 8 for t in tokens)
        validate_parse(tokens, data)

    def test_respects_max_match(self, finder, params):
        from dataclasses import replace

        tight = replace(params, max_match=16)
        data = b"z" * 500
        tokens = finder.parse(data, 0, tight)
        assert all(t.match_length <= 16 for t in tokens)
        validate_parse(tokens, data)

    def test_dictionary_history_is_reachable(self, finder, params):
        history = b"the shared dictionary content here"
        data = history + b"dictionary content"
        tokens = finder.parse(data, len(history), params)
        validate_parse(tokens, data, history_length=len(history))
        # The parse should find the cross-boundary match.
        assert any(t.match_length >= 8 for t in tokens)


class TestStrategyQualityOrdering:
    def test_deeper_search_never_hurts_much(self):
        data = b"".join(
            b"session[%d] = {user: %d, t: %d}\n" % (i, i % 13, i % 7)
            for i in range(200)
        )
        fast = SingleHashMatchFinder().parse(
            data, 0, MatchFinderParams(strategy="fast")
        )
        lazy = HashChainMatchFinder().parse(
            data, 0, MatchFinderParams(strategy="lazy2", search_depth=32, lazy_steps=2)
        )
        # Proxy for coded size: literal bytes plus per-sequence overhead.
        def cost(tokens):
            return sum(t.literal_length for t in tokens) + 3 * len(tokens)

        assert cost(lazy) <= cost(fast)

    def test_acceleration_reduces_work(self):
        data = bytes(range(256)) * 20  # few matches -> miss-heavy scan
        slow_counters = StageCounters()
        fast_counters = StageCounters()
        SingleHashMatchFinder().parse(
            data, 0, MatchFinderParams(strategy="fast", acceleration=1), slow_counters
        )
        SingleHashMatchFinder().parse(
            data, 0, MatchFinderParams(strategy="fast", acceleration=16), fast_counters
        )
        assert fast_counters.positions_scanned < slow_counters.positions_scanned


class TestFinderRegistry:
    @pytest.mark.parametrize("strategy", ["fast", "greedy", "lazy", "lazy2", "optimal"])
    def test_known_strategies(self, strategy):
        assert finder_for_strategy(strategy) is not None

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            finder_for_strategy("btultra-nope")


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=600))
def test_all_strategies_valid_on_random_input(data):
    for finder, params in _FINDERS:
        tokens = finder.parse(data, 0, params)
        assert tokens_cover(tokens) == len(data)
        validate_parse(tokens, data)

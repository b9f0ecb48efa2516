"""Ablation: match-finding strategy ladder (DESIGN.md section 5).

Holds the entropy stage fixed (always the Zstd-style coder) and sweeps the
parsing strategy, isolating the compression-speed/ratio axis the paper
attributes to the LZ match-finding stage.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.codecs.base import StageCounters
from repro.codecs.matchfinders import MatchFinderParams, finder_for_strategy
from repro.codecs.zstd import blocks as zblocks
from repro.corpus import generate_records
from repro.perfmodel import DEFAULT_MACHINE

_STRATEGIES = [
    ("fast", MatchFinderParams(strategy="fast")),
    ("greedy", MatchFinderParams(strategy="greedy", search_depth=8)),
    ("lazy", MatchFinderParams(strategy="lazy", search_depth=16, lazy_steps=1)),
    ("lazy2", MatchFinderParams(strategy="lazy2", search_depth=32, lazy_steps=2)),
    ("optimal", MatchFinderParams(strategy="optimal", search_depth=32)),
]


@pytest.fixture(scope="module")
def sweep():
    data = generate_records(32768, seed=170)
    out = {}
    for name, params in _STRATEGIES:
        counters = StageCounters(bytes_in=len(data))
        finder = finder_for_strategy(params.strategy)
        sequences = finder.parse(data, 0, params, counters)
        payload = zblocks.encode_block(data, 0, sequences, counters)
        out[name] = (
            len(data) / len(payload),
            DEFAULT_MACHINE.compress_speed("zstd", counters) / 1e6,
            counters.match_candidates,
        )
    return out


def test_ablation_matchfinders(benchmark, sweep, figure_output):
    rows = [
        [name, f"{ratio:.3f}", f"{speed:.0f}", candidates]
        for name, (ratio, speed, candidates) in sweep.items()
    ]
    figure_output(
        "ablation_matchfinders",
        format_table(
            ["strategy", "ratio", "modeled MB/s", "candidates"],
            rows,
            title="Ablation: parsing strategy at a fixed entropy stage",
        ),
    )
    # Effort ladder: strictly more candidate evaluations down the ladder...
    candidates = [sweep[name][2] for name, __ in _STRATEGIES]
    assert candidates == sorted(candidates)
    # ...buying ratio at the endpoints.
    assert sweep["lazy2"][0] > sweep["fast"][0]
    # ...and costing modeled speed at the endpoints.
    assert sweep["optimal"][1] < sweep["fast"][1]

    data = generate_records(8192, seed=171)
    fast = finder_for_strategy("fast")
    params = MatchFinderParams(strategy="fast")
    benchmark(lambda: fast.parse(data, 0, params))

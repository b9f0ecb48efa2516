"""Ablations: lazy-evaluation depth and scan acceleration (DESIGN.md §5).

Two knobs inside the match-finding stage:

- ``lazy_steps`` (0/1/2): deferring a match to check the next positions,
  the mechanism separating zstd's greedy/lazy/lazy2 strategies;
- ``acceleration``: the miss-driven skip-step growth behind LZ4's
  acceleration factor and zstd's negative levels.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.codecs.base import StageCounters
from repro.codecs.matchfinders import (
    HashChainMatchFinder,
    MatchFinderParams,
    SingleHashMatchFinder,
)
from repro.codecs.zstd import blocks as zblocks
from repro.corpus import generate_binary, generate_records
from repro.perfmodel import DEFAULT_MACHINE


@pytest.fixture(scope="module")
def lazy_sweep():
    # Structured records: the regime where deferred matching pays off.
    data = generate_records(32768, seed=210)
    out = {}
    for lazy_steps in (0, 1, 2):
        params = MatchFinderParams(
            strategy=("greedy", "lazy", "lazy2")[lazy_steps],
            search_depth=16,
            lazy_steps=lazy_steps,
        )
        counters = StageCounters(bytes_in=len(data))
        sequences = HashChainMatchFinder().parse(data, 0, params, counters)
        payload = zblocks.encode_block(data, 0, sequences, counters)
        out[lazy_steps] = (
            len(data) / len(payload),
            DEFAULT_MACHINE.compress_speed("zstd", counters) / 1e6,
        )
    return out


@pytest.fixture(scope="module")
def acceleration_sweep():
    # Low-redundancy binary: the miss-heavy regime acceleration targets.
    data = generate_binary(32768, seed=211)
    out = {}
    for acceleration in (1, 3, 7, 11):
        params = MatchFinderParams(strategy="fast", acceleration=acceleration)
        counters = StageCounters(bytes_in=len(data))
        sequences = SingleHashMatchFinder().parse(data, 0, params, counters)
        payload = zblocks.encode_block(data, 0, sequences, counters)
        out[acceleration] = (
            len(data) / len(payload),
            DEFAULT_MACHINE.compress_speed("zstd", counters) / 1e6,
            counters.positions_scanned,
        )
    return out


def test_ablation_lazy_steps(benchmark, lazy_sweep, figure_output):
    rows = [
        [steps, f"{ratio:.3f}", f"{speed:.0f}"]
        for steps, (ratio, speed) in sorted(lazy_sweep.items())
    ]
    figure_output(
        "ablation_lazy_steps",
        format_table(
            ["lazy steps", "ratio", "modeled MB/s"],
            rows,
            title="Ablation: lazy evaluation depth (greedy/lazy/lazy2)",
        ),
    )
    # Lazy parsing buys ratio over greedy at a speed cost.
    assert lazy_sweep[2][0] >= lazy_sweep[0][0]
    assert lazy_sweep[2][1] < lazy_sweep[0][1]

    data = generate_records(8192, seed=212)
    params = MatchFinderParams(strategy="lazy", search_depth=16, lazy_steps=1)
    benchmark(lambda: HashChainMatchFinder().parse(data, 0, params))


def test_ablation_acceleration(benchmark, acceleration_sweep, figure_output):
    rows = [
        [acceleration, f"{ratio:.3f}", f"{speed:.0f}", scanned]
        for acceleration, (ratio, speed, scanned) in sorted(
            acceleration_sweep.items()
        )
    ]
    figure_output(
        "ablation_acceleration",
        format_table(
            ["acceleration", "ratio", "modeled MB/s", "positions scanned"],
            rows,
            title="Ablation: scan acceleration (zstd negative levels / LZ4)",
        ),
    )
    # Acceleration strictly reduces work and costs ratio at the extremes.
    scanned = [acceleration_sweep[a][2] for a in sorted(acceleration_sweep)]
    assert scanned == sorted(scanned, reverse=True)
    assert acceleration_sweep[11][0] <= acceleration_sweep[1][0]
    assert acceleration_sweep[11][1] > acceleration_sweep[1][1]

    data = generate_binary(8192, seed=213)
    params = MatchFinderParams(strategy="fast", acceleration=7)
    benchmark(lambda: SingleHashMatchFinder().parse(data, 0, params))

"""Graph rungs in the serving plane: opt-in, exercised, byte-identical.

The degradation ladder gains trained graphs as *candidates* only when
asked (``graphs=``); by default nothing changes. On a record-heavy
tenant the trained record graph wins rung 0 outright and the simulation
serves through it — the serving-integration acceptance for this PR.
"""

import pytest

from repro.graphs.samples import category_sample
from repro.serving.degrade import build_ladder
from repro.serving.simulate import build_scenario_ladder, run_simulation
from repro.serving.workload import TenantSpec

_RECORD_TENANTS = [
    TenantSpec(
        name="feed-records",
        weight=1.0,
        median_bytes=49152,
        sigma=0.25,
        deadline_seconds=0.5,
        corpus="records",
    )
]


def test_build_ladder_gains_graph_rung_on_record_samples():
    samples = [category_sample("record", size=49152, seed=s) for s in (1, 2)]
    ladder = build_ladder(
        samples,
        algorithms=("zstd", "lz4"),
        levels=(1, 2, 3, 6),
        graphs=("record",),
    )
    assert ladder.labels()[0] == "graph:record-1", (
        f"expected the trained record graph at rung 0, got {ladder.labels()}"
    )
    # the graph rung must still be the best-ratio rung on the ladder
    assert ladder.rungs[0].ratio == max(r.ratio for r in ladder.rungs)


def test_default_ladder_is_unchanged_without_graphs():
    samples = [category_sample("record", size=16384, seed=1)]
    base = build_ladder(samples, algorithms=("zstd", "lz4"), levels=(1, 3))
    explicit = build_ladder(
        samples, algorithms=("zstd", "lz4"), levels=(1, 3), graphs=()
    )
    assert base.labels() == explicit.labels()
    assert [r.ratio for r in base.rungs] == [r.ratio for r in explicit.rungs]


def test_simulation_exercises_graph_rung():
    report = run_simulation(
        scenario="baseline",
        scale=0.1,
        seed=7,
        tenants=_RECORD_TENANTS,
        graphs=["record"],
    )
    assert report.ladder_labels[0] == "graph:record-1"
    assert report.served > 0, "the graph rung was never exercised"
    assert report.rung0_ratio > 4.0


def test_simulation_without_graphs_matches_pre_graph_behavior():
    """graphs=None must be a strict no-op on an existing scenario."""
    base = run_simulation(scenario="baseline", scale=0.05, seed=7)
    explicit = run_simulation(scenario="baseline", scale=0.05, seed=7, graphs=[])
    assert base.ladder_labels == explicit.ladder_labels
    assert base.served == explicit.served


def test_build_scenario_ladder_accepts_graphs():
    class _Req:
        def __init__(self, payload):
            self.payload = payload

    requests = [
        _Req(category_sample("record", size=49152, seed=s)) for s in range(4)
    ]
    ladder = build_scenario_ladder(requests, graphs=("record",))
    assert "graph:record-1" in ladder.labels()


def test_unknown_graph_name_fails_loudly():
    samples = [category_sample("record", size=8192, seed=1)]
    with pytest.raises(Exception):
        build_ladder(
            samples, algorithms=("zstd",), levels=(1,), graphs=("missing",)
        )

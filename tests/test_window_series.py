"""The window series is folded as it closes, and nothing keeps all of it.

A run's closed windows are not kept to the end. The SLO evaluator keeps
the lookback its burn rules read (``SLOEvaluator.windows``) and folds each
window into ``SLOEvaluator.totals`` as it closes; a cluster shard folds
the windows it closes into ``ClusterNode.total``. ``merge_windows`` is a
left fold from an empty registry, so these running folds must equal
``merge_windows`` over the whole series, bit for bit (float sums
included). The oracle tests capture every closed window through spies on
``SLOEvaluator.on_window`` and the node's ``advance_windows`` /
``flush_windows`` and compare ``registry_snapshot`` of both sides.

The count tests run without spies, which would keep every window alive.
At every control tick they count the live ``WindowSnapshot`` objects. The
count must stay within the lookback plus one per node plus one, and its
maximum must be the same at scale 0.25 and at scale 1.0: window memory
follows the lookback, not the length of the run.
"""

from __future__ import annotations

import collections
import dataclasses
import gc

import pytest

from repro.chaos import run_chaos
from repro.cluster import simulate as cluster_sim
from repro.obs.export import registry_snapshot
from repro.obs.slo import DEFAULT_RULES, SLOEvaluator
from repro.obs.timeseries import WindowSnapshot, merge_windows
from repro.serving.node import ServingNode
from repro.serving.simulate import run_simulation

LOOKBACK = max(rule.long_windows for rule in DEFAULT_RULES)
SURGE = cluster_sim.CLUSTER_SCENARIOS["fleet-surge"]


class _Series:
    """Every window a run closed, captured as it closed."""

    def __init__(self) -> None:
        #: windows each evaluator took, by evaluator, in close order
        self.evaluated = collections.defaultdict(list)
        #: windows each node closed, by node, in close order
        self.closed = collections.defaultdict(list)
        #: tails ``flush_windows`` closed at the end of the run
        self.flushed = 0


@pytest.fixture
def series(monkeypatch) -> _Series:
    seen = _Series()
    on_window = SLOEvaluator.on_window
    advance, flush = ServingNode.advance_windows, ServingNode.flush_windows

    def on_window_captured(self, snapshot):
        seen.evaluated[self].append(snapshot)
        return on_window(self, snapshot)

    def advance_captured(self, now):
        closed = advance(self, now)
        seen.closed[self].extend(closed)
        return closed

    def flush_captured(self):
        closed = flush(self)
        seen.closed[self].extend(closed)
        seen.flushed += len(closed)
        return closed

    monkeypatch.setattr(SLOEvaluator, "on_window", on_window_captured)
    monkeypatch.setattr(ServingNode, "advance_windows", advance_captured)
    monkeypatch.setattr(ServingNode, "flush_windows", flush_captured)
    return seen


def _same(running, windows) -> bool:
    return registry_snapshot(running) == registry_snapshot(merge_windows(windows))


def test_serve_totals_are_the_fold_of_every_closed_window(series):
    report = run_simulation("overload", seed=7, scale=0.1)
    ((evaluator, evaluated),) = series.evaluated.items()
    ((node, closed),) = series.closed.items()
    assert report.registry is evaluator.totals
    assert evaluator.closed == len(evaluated) == len(closed) > 0
    assert [w.index for w in evaluated] == [w.index for w in closed]
    assert _same(evaluator.totals, evaluated)
    assert _same(evaluator.totals, closed)
    assert evaluator.windows == evaluated[-LOOKBACK:]


@pytest.mark.parametrize(
    "scenario",
    [
        SURGE,
        # control ticks inside windows: nodes join mid-window and the run
        # ends mid-window, so the shards flush a tail
        dataclasses.replace(SURGE, control_interval_seconds=0.05),
    ],
    ids=["ticks-on-edges", "ticks-inside-windows"],
)
def test_cluster_totals_are_the_fold_of_every_closed_window(series, scenario):
    report = cluster_sim.run_cluster_simulation(scenario, seed=7, scale=0.25)
    ((evaluator, evaluated),) = series.evaluated.items()
    assert report.registry is evaluator.totals
    assert report.fleet_windows == evaluator.closed == len(evaluated) > 0
    assert [w.index for w in evaluated] == list(range(len(evaluated)))
    assert _same(evaluator.totals, evaluated)
    assert evaluator.windows == evaluated[-LOOKBACK:]
    # each shard's running total is the fold of its own closed windows,
    # a late joiner's empty history included (that the fleet is the sum
    # of its shards, the simulator checks itself when the heap drains)
    nodes = sorted(series.closed, key=lambda node: node.name)
    assert [node.name for node in nodes] == [s.name for s in report.shards]
    assert any(node.created_at > 0 for node in nodes)
    assert (series.flushed > 0) == (scenario is not SURGE)
    for node in nodes:
        closed = series.closed[node]
        assert [w.index for w in closed] == list(range(len(closed)))
        assert _same(node.total, closed)


def test_chaos_totals_are_the_fold_of_every_closed_window(series):
    run_chaos("standard", seed=7, ops=1.0)
    assert series.evaluated
    for evaluator, evaluated in series.evaluated.items():
        assert evaluator.closed == len(evaluated) > 0
        assert _same(evaluator.totals, evaluated)
        lookback = max(rule.long_windows for rule in evaluator.rules)
        assert evaluator.windows == evaluated[-lookback:]


def _live_snapshots_per_tick(monkeypatch, scale: float):
    """Live ``WindowSnapshot`` objects at each control tick of one run, and
    the run's report. The autoscaler reads ``SLOEvaluator.burn`` once per
    tick, so the count is taken there."""
    counts = []
    burn = SLOEvaluator.burn

    def counted(self, slo_name):
        counts.append(
            sum(1 for obj in gc.get_objects() if type(obj) is WindowSnapshot)
        )
        return burn(self, slo_name)

    monkeypatch.setattr(SLOEvaluator, "burn", counted)
    report = cluster_sim.run_cluster_simulation("fleet-surge", seed=7, scale=scale)
    monkeypatch.undo()
    return counts, report


def test_live_windows_follow_the_lookback_not_the_run(monkeypatch):
    peaks = {}
    for scale in (0.25, 1.0):
        counts, report = _live_snapshots_per_tick(monkeypatch, scale)
        assert report.fleet_windows >= LOOKBACK
        # one count per control tick, the last four ticks past the horizon
        assert len(counts) == round(
            SURGE.duration_seconds * scale / SURGE.control_interval_seconds
        ) + 4
        assert max(counts) <= LOOKBACK + len(report.shards) + 1
        peaks[scale] = max(counts)
    assert peaks[0.25] == peaks[1.0]

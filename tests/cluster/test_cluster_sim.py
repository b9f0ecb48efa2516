"""End-to-end invariants of the cluster simulator.

Four families, all on the real scenarios (no mocks):

- **determinism** — the rendered scorecard is byte-identical across
  runs, the codec-cache traffic is pinned, and the run is genuinely
  seed-sensitive;
- **fleet rollup** — the merged per-shard windows equal a one-shot
  global histogram built beside the run from every completion record,
  proving the fold is lossless on a real simulation;
- **scale before page** — on the surge scenario the autoscaler engages
  before the fleet shed-rate SLO would page, and switching it off makes
  the same seeded traffic page;
- **no stranding** — scale-down drains: every retired node served or
  expired everything it admitted (the fleet-wide request accounting is
  swept in ``tests/test_sim_conservation.py``).

Runs are memoized per parameter set so the suite pays for each
simulation once.
"""

from functools import lru_cache

import pytest

from repro.cluster import (
    Autoscaler,
    CLUSTER_SCENARIOS,
    format_cluster_scorecard,
    run_cluster_simulation,
)
from repro.cluster import simulate as cluster_sim
from repro.cluster.simulate import _cluster_tenants
from repro.obs.metrics import Histogram
from repro.serving.slos import (
    ALL_TENANTS,
    WINDOW_LATENCY,
    WINDOW_OUTCOMES,
    WINDOW_VERDICTS,
)
from repro.obs.slo import PAGE, SLOEvaluator, metric_total


@lru_cache(maxsize=None)
def _run(
    scenario: str,
    seed: int = 7,
    scale: float = 0.25,
    autoscale=None,
    rebalance=None,
):
    return run_cluster_simulation(
        scenario,
        seed=seed,
        scale=scale,
        autoscale=autoscale,
        rebalance=rebalance,
    )


# -- determinism --------------------------------------------------------------


def test_scorecard_byte_identical_across_runs():
    a = run_cluster_simulation("fleet-steady", seed=7, scale=0.25)
    b = run_cluster_simulation("fleet-steady", seed=7, scale=0.25)
    assert format_cluster_scorecard(a) == format_cluster_scorecard(b)


def test_scorecard_differs_across_seeds():
    a = _run("fleet-steady", seed=7)
    b = _run("fleet-steady", seed=8)
    assert format_cluster_scorecard(a) != format_cluster_scorecard(b)


def test_codec_cache_traffic_is_pinned():
    """The fleet codec cache compresses each distinct ``(algorithm, level,
    payload)`` once: a repeat, in the same dispatch or a later one, is a
    hit. Exact counts, so a change to how the gateway reaches the cache
    shows here."""
    report = _run("fleet-surge", seed=7)
    assert (report.cache_hits, report.cache_misses) == (677, 465)


def test_scenarios_are_registered_and_self_describing():
    for name, sc in CLUSTER_SCENARIOS.items():
        assert sc.name == name
        assert sc.description
        assert sc.initial_nodes >= 1


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_cluster_simulation("fleet-nonsense", seed=7)


# -- fleet rollup -------------------------------------------------------------


def test_fleet_fold_equals_one_shot_global_histogram(monkeypatch):
    """The run registry (per-shard windows merged by index, then folded
    across time) must agree exactly with one latency histogram observed
    at each completion record in event order — same count, same
    percentiles, same extremes. Any double-count or dropped window
    breaks this."""
    reference = Histogram("reference_latency_seconds")
    record = cluster_sim.record_window_completion

    def spy(recorder, tenant, latency, *args, **kwargs):
        reference.observe(latency)
        return record(recorder, tenant, latency, *args, **kwargs)

    monkeypatch.setattr(cluster_sim, "record_window_completion", spy)
    report = run_cluster_simulation("fleet-steady", seed=7, scale=0.25)
    fold = report.registry.get(WINDOW_LATENCY)
    assert isinstance(fold, Histogram)
    assert fold.count(tenant=ALL_TENANTS) == reference.count() == report.served
    for p in (50, 90, 99):
        assert fold.percentile(p, tenant=ALL_TENANTS) == reference.percentile(p)
    assert fold.min(tenant=ALL_TENANTS) == reference.min()
    assert fold.max(tenant=ALL_TENANTS) == reference.max()
    assert fold.sum(tenant=ALL_TENANTS) == pytest.approx(reference.sum())


def test_fleet_fold_counts_match_shard_sums():
    report = _run("fleet-steady", seed=7)
    registry = report.registry
    outcomes = metric_total(registry, WINDOW_OUTCOMES, result="on_time")
    assert outcomes == report.on_time
    assert metric_total(registry, WINDOW_OUTCOMES, result="tardy") == report.tardy
    for verdict, total in (
        ("admit", report.admitted),
        ("throttle", report.throttled),
        ("shed", report.shed),
        ("expired", report.expired),
    ):
        assert metric_total(registry, WINDOW_VERDICTS, verdict=verdict) == total
    # and the shard table is the same events partitioned by node
    assert sum(s.admitted for s in report.shards) == report.admitted
    assert sum(s.served for s in report.shards) == report.served
    assert sum(s.routed for s in report.shards) == report.arrivals


# -- scale before page --------------------------------------------------------


def test_surge_autoscaler_engages_before_any_page():
    """With the autoscaler on, the seeded surge scales up early and the
    fleet never pages; the identical traffic with the control loops off
    pages on shed rate. This is the scenario's reason to exist."""
    scaled = _run("fleet-surge", seed=7, scale=1.0)
    frozen = _run("fleet-surge", seed=7, scale=1.0, autoscale=False, rebalance=False)

    first_up = next(
        (e.at for e in scaled.scale_events if e.action == Autoscaler.UP), None
    )
    assert first_up is not None, "surge never triggered a scale-up"
    assert scaled.nodes_peak > scaled.nodes_initial
    assert scaled.alerts.total_page_seconds() == 0.0

    first_page = next(
        (t for t in frozen.alerts.transitions if t.to_state == PAGE), None
    )
    assert first_page is not None, "frozen fleet absorbed the surge"
    assert first_up < first_page.at
    assert frozen.shed + frozen.expired > scaled.shed + scaled.expired
    assert frozen.alerts.total_page_seconds() > 0.0


def test_autoscaler_reads_the_alert_planes_latency_burn(monkeypatch):
    """The burn the autoscaler acts on is the fleet latency SLO's own
    reading: at every control tick, ``slo.burn_rate`` over the last four
    fleet windows closed so far (the page rule's long view), which is
    what a per-tick re-merge of those windows used to recompute."""
    evaluators, readings = [], []

    class RememberedEvaluator(SLOEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            evaluators.append(self)

    observe = Autoscaler.observe

    def observe_recorded(self, now, active_nodes, pressures, p99_burn):
        # the evaluator keeps only its lookback, so the page rule's long
        # view is read here, as it stands at this tick
        readings.append((p99_burn, list(evaluators[0].windows[-4:])))
        return observe(self, now, active_nodes, pressures, p99_burn)

    monkeypatch.setattr(cluster_sim, "SLOEvaluator", RememberedEvaluator)
    monkeypatch.setattr(Autoscaler, "observe", observe_recorded)
    run_cluster_simulation("fleet-surge", seed=7, scale=0.25)

    (evaluator,) = evaluators
    slo = next(s for s in evaluator.slos if s.name == "latency_p99")
    assert len(readings) > 8
    for burn, view in readings:
        assert burn == (slo.burn_rate(view) if view else None)
    assert any(burn for burn, __ in readings)


def test_surge_scale_ups_report_key_movement():
    """Every scale-up reports how many tenants re-homed; adding nodes
    must move *some* tenants (that is the point) but never all of them
    (minimal movement, inherited from the ring)."""
    report = _run("fleet-surge", seed=7, scale=1.0)
    ups = [e for e in report.scale_events if e.action == Autoscaler.UP]
    assert ups
    tenant_count = len(_cluster_tenants(CLUSTER_SCENARIOS["fleet-surge"]))
    assert any(e.moved_tenants > 0 for e in ups)
    assert all(e.moved_tenants < tenant_count for e in ups)


# -- hotspot rebalancing ------------------------------------------------------


def test_hotspot_rebalancer_moves_only_the_hot_tenant():
    report = _run("fleet-hotspot", seed=7, scale=1.0)
    assert report.rebalance_events, "hotspot never triggered a rebalance"
    sc = CLUSTER_SCENARIOS["fleet-hotspot"]
    boosted = max(_cluster_tenants(sc), key=lambda t: t.weight).name
    assert {e.tenant for e in report.rebalance_events} == {boosted}
    for event in report.rebalance_events:
        assert event.from_nodes != event.to_nodes


# -- no stranding -------------------------------------------------------------


def test_scale_down_drains_without_stranding():
    """fleet-steady trims idle nodes; every node it retired must have
    fully drained first (admitted == served + expired, nothing left)."""
    report = _run("fleet-steady", seed=7, scale=1.0)
    downs = [e for e in report.scale_events if e.action == Autoscaler.DOWN]
    assert downs, "steady fleet never scaled down"
    retired = [s for s in report.shards if s.status == "retired"]
    assert retired, "a scale-down must end in a retirement"
    for shard in retired:
        assert shard.retired_at is not None
        assert shard.admitted == shard.served + shard.expired, (
            f"{shard.name} retired with requests stranded"
        )

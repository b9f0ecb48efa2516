"""Unit tests for the fleet rollup folds: whole-run
(:func:`repro.obs.timeseries.merge_windows`) and by window index
(:mod:`repro.obs.rollup`).

The cluster plane's central claim is that fleet numbers are *derived*
from per-shard telemetry by merging, never double-recorded — so the
fold has to be provably lossless and order-independent, and it has to
refuse to merge windows whose bounds disagree (silent misalignment
would corrupt every rate computed over the result).
"""

import random

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.rollup import merge_shard_windows
from repro.obs.timeseries import WindowSnapshot, merge_windows


def _record(registry: MetricsRegistry, seed: int, events: int) -> MetricsRegistry:
    """Seeded traffic into ``registry``: a counter and a histogram."""
    rng = random.Random(seed)
    requests = registry.counter("requests_total")
    latency = registry.histogram("latency_seconds")
    for _ in range(events):
        tenant = rng.choice(["a", "b", "c"])
        requests.inc(1, tenant=tenant)
        latency.observe(rng.lognormvariate(-4.0, 1.0), tenant=tenant)
    return registry


def _shard_registry(seed: int, events: int) -> MetricsRegistry:
    """One shard's worth of seeded traffic."""
    return _record(MetricsRegistry(), seed, events)


def _fold(registries) -> MetricsRegistry:
    """``merge_windows`` over one window per registry."""
    return merge_windows(
        [
            WindowSnapshot(index, float(index), float(index + 1), registry)
            for index, registry in enumerate(registries)
        ]
    )


def test_merge_registries_equals_one_global_recorder():
    """Recording the same seeded events into three shard registries and
    folding must equal recording them all into one registry."""
    shards = [_shard_registry(seed, 300) for seed in (1, 2, 3)]
    merged = _fold(shards)

    global_registry = MetricsRegistry()
    for seed in (1, 2, 3):
        _record(global_registry, seed, 300)

    assert sorted(merged.get("requests_total").samples()) == sorted(
        global_registry.get("requests_total").samples()
    )
    merged_hist = merged.get("latency_seconds")
    global_hist = global_registry.get("latency_seconds")
    for tenant in ("a", "b", "c"):
        assert merged_hist.count(tenant=tenant) == global_hist.count(tenant=tenant)
        assert merged_hist.percentile(99, tenant=tenant) == global_hist.percentile(
            99, tenant=tenant
        )
        assert merged_hist.sum(tenant=tenant) == pytest.approx(
            global_hist.sum(tenant=tenant)
        )


def test_merge_registries_is_order_independent():
    shards = [_shard_registry(seed, 200) for seed in (5, 6, 7)]
    forward = _fold(shards)
    backward = _fold(list(reversed(shards)))
    assert sorted(forward.get("requests_total").samples()) == sorted(
        backward.get("requests_total").samples()
    )
    fwd_hist, bwd_hist = (
        r.get("latency_seconds") for r in (forward, backward)
    )
    for tenant in ("a", "b", "c"):
        assert fwd_hist.count(tenant=tenant) == bwd_hist.count(tenant=tenant)
        assert fwd_hist.percentile(99, tenant=tenant) == bwd_hist.percentile(
            99, tenant=tenant
        )


def test_merge_registries_of_nothing_is_empty():
    assert _fold([]).metrics() == []


def test_merge_shard_windows_aligns_by_index():
    """Two shards, two windows each — the fold yields one fleet window
    per index spanning the shared interval, with counts summed."""
    def window(index, count):
        registry = MetricsRegistry()
        registry.counter("served_total").inc(count)
        return WindowSnapshot(index, index * 1.0, (index + 1) * 1.0, registry)

    fleet = merge_shard_windows(
        [[window(0, 3), window(1, 5)], [window(0, 7), window(1, 11)]]
    )
    assert [w.index for w in fleet] == [0, 1]
    assert fleet[0].start == 0.0 and fleet[0].end == 1.0
    totals = [
        sum(value for _, value in w.registry.get("served_total").samples())
        for w in fleet
    ]
    assert totals == [10, 16]


def test_merge_shard_windows_tolerates_late_joiners():
    """A shard that joined at window 1 simply contributes nothing to
    window 0 — no padding, no error."""
    def window(index, count):
        registry = MetricsRegistry()
        registry.counter("served_total").inc(count)
        return WindowSnapshot(index, index * 1.0, (index + 1) * 1.0, registry)

    fleet = merge_shard_windows([[window(0, 2), window(1, 2)], [window(1, 9)]])
    assert [w.index for w in fleet] == [0, 1]
    totals = [
        sum(value for _, value in w.registry.get("served_total").samples())
        for w in fleet
    ]
    assert totals == [2, 11]


def test_merge_shard_windows_rejects_misaligned_bounds():
    a = WindowSnapshot(0, 0.0, 1.0, MetricsRegistry())
    b = WindowSnapshot(0, 0.5, 1.5, MetricsRegistry())
    with pytest.raises(ValueError, match="misaligned"):
        merge_shard_windows([[a], [b]])


def test_merge_shard_windows_of_nothing_is_empty():
    assert merge_shard_windows([]) == []
    assert merge_shard_windows([[], []]) == []

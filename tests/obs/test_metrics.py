"""Metric primitives: counters, gauges, histogram percentiles, merging."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as metrics_module
from repro.obs.export import registry_snapshot
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_key,
)


def _reference_key(labels):
    """``label_key`` as it was before keys were remembered."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


_LABEL_VALUES = st.one_of(
    st.text(max_size=6),
    st.integers(-3, 3),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.sampled_from(["1", "True", "1.0", "0", "0.0", "-0.0", "None", ""]),
)


class TestLabelKey:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["a", "b", "c", "tenant"]), _LABEL_VALUES, max_size=4
            ),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_equals_the_sorted_str_tuple(self, label_sets, rnd):
        # several sets per example, each in two keyword orders, so a key
        # remembered for one set is in the memo when its look-alikes arrive
        for labels in label_sets:
            names = list(labels)
            rnd.shuffle(names)
            shuffled = {name: labels[name] for name in names}
            assert label_key(labels) == _reference_key(labels)
            assert label_key(shuffled) == _reference_key(labels)

    def test_values_that_hash_alike_keep_their_own_spelling(self):
        family = [1, True, 1.0, "1", 0, False, 0.0, -0.0, "0", None, "None"]
        for order in itertools.permutations(family, 3):
            for value in order:
                assert label_key({"v": value}) == (("v", str(value)),)
                assert label_key({"w": "x", "v": value}) == (
                    ("v", str(value)),
                    ("w", "x"),
                )

    def test_str_subclass_is_spelled_by_its_own_str(self):
        class Loud(str):
            def __str__(self):
                return "LOUD"

        assert label_key({"v": "quiet"}) == (("v", "quiet"),)
        assert label_key({"v": Loud("quiet")}) == (("v", "LOUD"),)

    def test_unhashable_values_still_work(self):
        assert label_key({"v": [1, 2]}) == (("v", "[1, 2]"),)
        assert label_key({"v": {"k": 1}, "w": "x"}) == (
            ("v", "{'k': 1}"),
            ("w", "x"),
        )

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "_CANONICAL", {})
        monkeypatch.setattr(metrics_module, "_CANONICAL_LIMIT", 8)
        for index in range(100):
            assert label_key({"n": f"v{index}"}) == (("n", f"v{index}"),)
            assert len(metrics_module._CANONICAL) <= 8

    def test_a_repeated_label_set_is_built_once(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "_CANONICAL", {})
        built = []
        original = metrics_module._canonical
        monkeypatch.setattr(
            metrics_module,
            "_canonical",
            lambda labels: built.append(dict(labels)) or original(labels),
        )
        c = Counter("calls")
        for __ in range(50):
            c.inc(1, tenant="web", verdict="admit")
            c.inc(1, verdict="admit", tenant="web")
        assert c.value(tenant="web", verdict="admit") == 100
        assert len(built) == 2  # one per keyword order


class TestCounter:
    def test_inc_and_value_by_labels(self):
        c = Counter("calls")
        c.inc(algorithm="zstd", direction="compress")
        c.inc(2, algorithm="zstd", direction="compress")
        c.inc(5, algorithm="lz4", direction="compress")
        assert c.value(algorithm="zstd", direction="compress") == 3
        assert c.value(algorithm="lz4", direction="compress") == 5
        assert c.value(algorithm="zlib", direction="compress") == 0
        assert c.total() == 8

    def test_label_order_is_irrelevant(self):
        c = Counter("calls")
        c.inc(1, a="x", b="y")
        c.inc(1, b="y", a="x")
        assert c.value(a="x", b="y") == 2

    def test_negative_increment_rejected(self):
        c = Counter("calls")
        with pytest.raises(ValueError):
            c.inc(-1)

    @pytest.mark.parametrize("amount", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_increment_rejected_before_the_series_moves(self, amount):
        # nan is not < 0: it used to pass the check and turn the series nan
        c = Counter("calls")
        c.inc(2, codec="zstd")
        with pytest.raises(ValueError, match="calls"):
            c.inc(amount, codec="zstd")
        with pytest.raises(ValueError, match="calls"):
            c.inc(amount, codec="lz4")
        assert list(c.samples()) == [((("codec", "zstd"),), 2.0)]

    def test_merge_adds_per_series(self):
        a, b = Counter("calls"), Counter("calls")
        a.inc(3, codec="zstd")
        b.inc(4, codec="zstd")
        b.inc(1, codec="lz4")
        a.merge(b)
        assert a.value(codec="zstd") == 7
        assert a.value(codec="lz4") == 1


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("resident_bytes")
        g.set(100, shard="0")
        g.inc(50, shard="0")
        g.dec(25, shard="0")
        assert g.value(shard="0") == 125


class TestHistogramPercentiles:
    def test_uniform_distribution(self):
        """p50/p90/p99 of uniform 1..1000 land within one bucket width."""
        h = Histogram("lat")
        for v in range(1, 1001):
            h.observe(float(v))
        assert h.count() == 1000
        assert h.sum() == pytest.approx(500500.0)
        assert h.min() == 1.0
        assert h.max() == 1000.0
        # log-bucketed: relative error bounded by ~ half a bucket (~9%),
        # plus discretization; 15% is a safe envelope.
        assert h.p50() == pytest.approx(500, rel=0.15)
        assert h.p90() == pytest.approx(900, rel=0.15)
        assert h.p99() == pytest.approx(990, rel=0.15)

    def test_constant_distribution(self):
        h = Histogram("lat")
        for _ in range(100):
            h.observe(5.0)
        for p in (1, 50, 99, 100):
            assert h.percentile(p) == pytest.approx(5.0, rel=0.10)

    def test_wide_dynamic_range(self):
        """Nanoseconds and seconds coexist; quantiles stay order-accurate."""
        h = Histogram("lat")
        for _ in range(99):
            h.observe(1e-9)
        h.observe(1.0)
        assert h.p50() == pytest.approx(1e-9, rel=0.15)
        assert h.percentile(100) == pytest.approx(1.0, rel=0.15)

    def test_zero_observations_bucket(self):
        """Zero-duration events (cache hits) count and rank below positives."""
        h = Histogram("lat")
        for _ in range(90):
            h.observe(0.0)
        for _ in range(10):
            h.observe(1.0)
        assert h.count() == 100
        assert h.p50() == 0.0
        assert h.percentile(99) == pytest.approx(1.0, rel=0.15)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_observation_rejected_before_any_field_moves(self, value):
        # nan / inf used to fail inside math.floor with count and sum
        # already updated; -inf was counted as a zero and poisoned the sum
        h = Histogram("lat")
        h.observe(0.25, op="get")
        def fields():
            return (
                h.count(op="get"), h.sum(op="get"), h.min(op="get"),
                h.max(op="get"), h.cumulative_buckets(op="get"),
            )

        before = fields()
        for labels in ({"op": "get"}, {"op": "put"}):
            with pytest.raises(ValueError, match="lat"):
                h.observe(value, **labels)
            with pytest.raises(ValueError, match="lat"):
                h.observe_many([0.5, value, 0.0], **labels)
        assert fields() == before and before[:2] == (1, 0.25)
        assert h.label_keys() == [(("op", "get"),)]

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.count() == 0
        assert h.p50() == 0.0
        assert h.percentile(99, missing="labels") == 0.0

    def test_percentile_range_validated(self):
        h = Histogram("lat")
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_cumulative_buckets_monotone(self):
        h = Histogram("lat")
        rng = random.Random(7)
        for _ in range(500):
            h.observe(rng.lognormvariate(0, 2))
        buckets = h.cumulative_buckets()
        counts = [count for _, count in buckets]
        uppers = [upper for upper, _ in buckets]
        assert counts == sorted(counts)
        assert uppers == sorted(uppers)
        assert counts[-1] == 500


def _random_registry(seed: int) -> MetricsRegistry:
    rng = random.Random(seed)
    reg = MetricsRegistry()
    calls = reg.counter("calls")
    lat = reg.histogram("lat")
    mem = reg.gauge("mem")
    for _ in range(200):
        codec = rng.choice(["zstd", "lz4", "zlib"])
        calls.inc(rng.randrange(1, 5), codec=codec)
        lat.observe(rng.lognormvariate(-7, 1.5), codec=codec)
        mem.inc(rng.randrange(100), shard=str(seed))
    return reg


class TestRegistryMerge:
    def test_merge_is_associative(self):
        """(a ⊕ b) ⊕ c  ==  a ⊕ (b ⊕ c), compared by full snapshot."""
        left = MetricsRegistry()
        left.merge(_random_registry(1))
        left.merge(_random_registry(2))
        left.merge(_random_registry(3))

        bc = MetricsRegistry()
        bc.merge(_random_registry(2))
        bc.merge(_random_registry(3))
        right = MetricsRegistry()
        right.merge(_random_registry(1))
        right.merge(bc)

        assert registry_snapshot(left) == registry_snapshot(right)

    def test_merge_matches_single_shard_recording(self):
        """Sharded collection then merge == recording everything in one.

        Bucket counts, extremes, and every percentile are exactly equal;
        the running sum only up to float addition order.
        """
        merged = MetricsRegistry()
        combined = MetricsRegistry()
        lat = combined.histogram("lat")
        for seed in (10, 11, 12):
            shard = MetricsRegistry()
            shard_lat = shard.histogram("lat")
            rng = random.Random(seed)
            for _ in range(100):
                v = rng.lognormvariate(0, 1)
                shard_lat.observe(v)
                lat.observe(v)
            merged.merge(shard)
        got = merged.get("lat")
        assert got.count() == lat.count() == 300
        assert got.min() == lat.min()
        assert got.max() == lat.max()
        assert got.sum() == pytest.approx(lat.sum())
        assert got.cumulative_buckets() == lat.cumulative_buckets()
        for p in (1, 25, 50, 75, 90, 99, 100):
            assert got.percentile(p) == lat.percentile(p)

    def test_merge_kind_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m")
        b.gauge("m")
        with pytest.raises(TypeError):
            a.merge(b)

    def test_get_or_create_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.histogram("m")


class TestPercentileMonotonicity:
    """p50 <= p90 <= p99 must hold on adversarial bucket boundaries."""

    def _assert_monotone(self, hist, **labels):
        sweep = [hist.percentile(p, **labels) for p in range(0, 101, 1)]
        for lo, hi in zip(sweep, sweep[1:]):
            assert lo <= hi, sweep
        assert hist.p50(**labels) <= hist.p90(**labels) <= hist.p99(**labels)
        if hist.count(**labels):
            assert hist.percentile(100, **labels) <= hist.max(**labels)

    def test_exact_bucket_boundaries(self):
        import math

        hist = Histogram("bound", buckets_per_octave=4)
        base = math.log(2.0) / 4
        # values pinned exactly on (and a half-ulp around) the log-bucket
        # edges, where floor(log(v)/base) is most likely to waver
        for k in range(-40, 41):
            edge = math.exp(k * base)
            for value in (edge, math.nextafter(edge, 0.0),
                          math.nextafter(edge, math.inf)):
                hist.observe(value)
        self._assert_monotone(hist)

    def test_zeros_and_wide_dynamic_range(self):
        hist = Histogram("zeros", buckets_per_octave=4)
        for __ in range(10):
            hist.observe(0.0)
        for value in (1e-9, 1e-9, 1e-3, 1.0, 1.0, 1e6):
            hist.observe(value)
        self._assert_monotone(hist)
        # with 10/16 observations at zero, the median is the zero floor
        assert hist.p50() == 0.0

    def test_single_value_collapses(self):
        hist = Histogram("single", buckets_per_octave=4)
        hist.observe(0.125)
        assert hist.p50() == hist.p90() == hist.p99() == 0.125
        self._assert_monotone(hist)

    def test_monotone_after_merge(self):
        import math

        a = Histogram("m", buckets_per_octave=4)
        b = Histogram("m", buckets_per_octave=4)
        base = math.log(2.0) / 4
        for k in range(-12, 13):
            a.observe(math.exp(k * base), source="x")
            b.observe(math.exp((k + 0.5) * base), source="x")
        b.observe(0.0, source="x")
        a.merge(b)
        self._assert_monotone(a, source="x")

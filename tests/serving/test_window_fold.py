"""The window fold writes what one labelled update per event wrote.

``record_window_verdict / _served / _completion`` append one tuple each to
the recorder's pending list, and ``fold_window_records`` expands the
``WINDOW_*`` schema once per label set when the window is closed or read.
The reference below is the per-record ``inc`` / ``observe`` sequence the
three hooks ran before the fold existed, spelled out here so the test
does not depend on the code it checks. Equality is ``==`` on
``registry_snapshot``, float sums included: counts and byte sums are
integers, and each histogram series takes its values in arrival order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import registry_snapshot
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.serving.slos import (
    ALL_TENANTS,
    COMPLETION,
    SERVED,
    VERDICT,
    WINDOW_BYTES,
    WINDOW_DEGRADED,
    WINDOW_LATENCY,
    WINDOW_OUTCOMES,
    WINDOW_RAW,
    WINDOW_SERVED,
    WINDOW_VERDICTS,
    WINDOW_WAIT,
    WindowRecorder,
    fold_window_records,
    record_window_completion,
    record_window_served,
    record_window_verdict,
)


def _reference_apply(registry: MetricsRegistry, record: tuple) -> None:
    """One record through the labelled updates its hook used to make."""
    kind = record[0]
    if kind == VERDICT:
        __, tenant, verdict = record
        registry.counter(WINDOW_VERDICTS).inc(1, tenant=tenant, verdict=verdict)
    elif kind == SERVED:
        __, tenant, rung, degraded, raw_fallback, bytes_in, bytes_out = record
        registry.counter(WINDOW_SERVED).inc(1, tenant=tenant, rung=rung)
        volumes = registry.counter(WINDOW_BYTES)
        volumes.inc(bytes_in, kind="in_served")
        volumes.inc(bytes_out, kind="out")
        if degraded:
            registry.counter(WINDOW_DEGRADED).inc(1, rung=rung)
            volumes.inc(bytes_in, kind="in_degraded")
            volumes.inc(bytes_out, kind="out_degraded")
        if raw_fallback:
            registry.counter(WINDOW_RAW).inc(1, tenant=tenant)
    else:
        __, tenant, latency, wait, on_time, bytes_in = record
        histogram = registry.histogram(WINDOW_LATENCY)
        histogram.observe(latency, tenant=ALL_TENANTS)
        histogram.observe(latency, tenant=tenant)
        registry.histogram(WINDOW_WAIT).observe(wait, tenant=ALL_TENANTS)
        registry.counter(WINDOW_OUTCOMES).inc(
            1, result="on_time" if on_time else "tardy"
        )
        if on_time:
            registry.counter(WINDOW_BYTES).inc(bytes_in, kind="on_time")


def _reference(records) -> MetricsRegistry:
    registry = MetricsRegistry()
    for record in records:
        _reference_apply(registry, record)
    return registry


def _record(recorder: WindowRecorder, record: tuple) -> None:
    """The same record through the hook that appends it."""
    hook = {
        VERDICT: record_window_verdict,
        SERVED: record_window_served,
        COMPLETION: record_window_completion,
    }[record[0]]
    hook(recorder, *record[1:])


_TENANTS = [f"tenant-{c}" for c in "abcd"]
_RUNGS = ["zstd-6", "zstd-3", "lz4-1"]
_SECONDS = st.floats(
    min_value=0.0, max_value=30.0, allow_nan=False, allow_infinity=False
)
_BYTES = st.integers(0, 1 << 24)


@st.composite
def _records(draw, min_size=0):
    tenants = _TENANTS[: draw(st.integers(1, 4))]
    rungs = _RUNGS[: draw(st.integers(1, 3))]
    tenant, rung = st.sampled_from(tenants), st.sampled_from(rungs)
    verdict = st.tuples(
        st.just(VERDICT),
        tenant,
        st.sampled_from(["admit", "throttle", "shed", "expired"]),
    )
    # degraded / raw: both, either, neither
    served = st.tuples(
        st.just(SERVED), tenant, rung, st.booleans(), st.booleans(), _BYTES, _BYTES
    )
    # on time or tardy, with and without a queue wait
    completion = st.tuples(
        st.just(COMPLETION),
        tenant,
        _SECONDS,
        st.one_of(st.just(0.0), _SECONDS),
        st.booleans(),
        _BYTES,
    )
    return draw(
        st.lists(
            st.one_of(verdict, served, completion), min_size=min_size, max_size=60
        )
    )


class TestFoldEqualsPerRecordUpdates:
    @settings(max_examples=200, deadline=None)
    @given(_records())
    def test_fold_equals_the_labelled_update_sequence(self, records):
        folded = MetricsRegistry()
        fold_window_records(folded, records)
        assert registry_snapshot(folded) == registry_snapshot(_reference(records))

    @settings(max_examples=200, deadline=None)
    @given(_records(), st.data())
    def test_a_mid_window_read_changes_nothing(self, records, data):
        cut = data.draw(st.integers(0, len(records)))
        recorder = WindowRecorder(1.0)
        for record in records[:cut]:
            _record(recorder, record)
        early = registry_snapshot(recorder.registry())
        assert early == registry_snapshot(_reference(records[:cut]))
        assert recorder.pending == []
        for record in records[cut:]:
            _record(recorder, record)
        assert registry_snapshot(recorder.registry()) == registry_snapshot(
            _reference(records)
        )

    @settings(max_examples=100, deadline=None)
    @given(_records(min_size=1))
    def test_window_close_folds_what_is_pending(self, records):
        recorder = WindowRecorder(1.0)
        for record in records:
            _record(recorder, record)
        closed = recorder.advance(1.0)
        assert [w.index for w in closed] == [0] and recorder.pending == []
        assert registry_snapshot(closed[0].registry) == registry_snapshot(
            _reference(records)
        )
        assert len(recorder.registry()) == 0

    def test_an_empty_fold_creates_no_family(self):
        registry = MetricsRegistry()
        fold_window_records(registry, [])
        assert len(registry) == 0
        recorder = WindowRecorder(1.0)
        assert len(recorder.registry()) == 0 and recorder.flush() is None

    def test_only_touched_families_and_label_sets_exist(self):
        registry = MetricsRegistry()
        fold_window_records(registry, [(VERDICT, "tenant-a", "admit")])
        assert [m.name for m in registry] == [WINDOW_VERDICTS]
        # a tardy completion moves no on-time bytes; a zero-byte serve
        # still creates its byte series, at zero
        fold_window_records(
            registry,
            [
                (COMPLETION, "tenant-a", 0.5, 0.0, False, 99),
                (SERVED, "tenant-a", "zstd-3", False, False, 0, 0),
            ],
        )
        volumes = {
            dict(key)["kind"]: value
            for key, value in registry.get(WINDOW_BYTES).samples()
        }
        assert volumes == {"in_served": 0.0, "out": 0.0}
        assert registry.get(WINDOW_DEGRADED) is None
        assert registry.get(WINDOW_RAW) is None

    def test_flush_emits_a_tail_that_is_only_pending(self):
        recorder = WindowRecorder(0.5)
        record_window_verdict(recorder, "tenant-a", "admit")
        assert len(recorder._current) == 0  # nothing folded yet
        tail = recorder.flush()
        assert tail is not None and (tail.index, tail.start, tail.end) == (0, 0.0, 0.5)
        assert registry_snapshot(tail.registry) == registry_snapshot(
            _reference([(VERDICT, "tenant-a", "admit")])
        )
        assert recorder.flush() is None


def _series_fields(histogram: Histogram, **labels):
    series = histogram._get(labels)
    return (
        series.buckets,
        series.zeros,
        series.count,
        series.total,
        series.minimum,
        series.maximum,
    )


_VALUES = st.lists(
    st.one_of(
        st.floats(min_value=-5.0, max_value=1e9, allow_nan=False),
        st.sampled_from([0.0, -0.0, 5e-324, 1e-12, 1.0, 2.0]),
        st.integers(-2, 1000),
    ),
    max_size=40,
)


class TestObserveMany:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES, _VALUES)
    def test_equals_a_loop_of_observe(self, first, second):
        # two batches, so the second starts from a series that exists
        bulk, single = Histogram("h"), Histogram("h")
        for values in (first, second):
            bulk.observe_many(values, tenant="t")
            for value in values:
                single.observe(value, tenant="t")
        assert bulk.label_keys() == single.label_keys()
        if first or second:
            assert _series_fields(bulk, tenant="t") == _series_fields(
                single, tenant="t"
            )
            # ``==`` cannot tell 0.0 from -0.0
            assert repr(bulk.min(tenant="t")) == repr(single.min(tenant="t"))
            assert repr(bulk.sum(tenant="t")) == repr(single.sum(tenant="t"))

    def test_an_empty_batch_creates_no_series(self):
        histogram = Histogram("h")
        histogram.observe_many([], tenant="t")
        assert histogram.label_keys() == []

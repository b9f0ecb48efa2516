"""TimeSeriesRecorder: window mechanics and the lossless-merge property.

The load-bearing claim (ISSUE 6, satellite 3): folding N window
snapshots back into one registry yields *exactly* the histogram a
one-shot recording of the same samples would have produced — bucket
counts, count/sum, min/max, and therefore every percentile. The
property test drives it over adversarial values pinned on (and a
half-ulp around) the log-bucket edges, the same fixtures the percentile
monotonicity tests use.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    WindowSnapshot,
    merge_windows,
)


class TestWindowMechanics:
    def test_advance_closes_elapsed_windows(self):
        rec = TimeSeriesRecorder(width_seconds=1.0)
        rec.registry().counter("ops").inc(3)
        assert rec.advance(0.5) == []  # still inside window 0
        closed = rec.advance(1.0)
        assert [w.index for w in closed] == [0]
        assert (closed[0].start, closed[0].end) == (0.0, 1.0)
        assert closed[0].registry.get("ops") is not None
        # the in-progress window is fresh
        assert len(rec.registry()) == 0
        assert rec.current_index == 1

    def test_skipped_windows_close_empty_no_gaps(self):
        rec = TimeSeriesRecorder(width_seconds=1.0)
        rec.registry().counter("ops").inc()
        closed = rec.advance(3.5)
        assert [w.index for w in closed] == [0, 1, 2]
        assert [(w.start, w.end) for w in closed] == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 3.0),
        ]
        # the skipped windows are present but empty
        assert len(closed[1].registry) == 0
        assert len(closed[2].registry) == 0

    def test_stale_now_is_noop(self):
        rec = TimeSeriesRecorder(width_seconds=1.0)
        rec.advance(2.0)
        assert rec.advance(1.0) == []
        assert rec.current_index == 2

    @pytest.mark.parametrize("now", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_now_is_rejected(self, now):
        # advance(inf) closed empty windows forever; nan was a silent no-op
        rec = TimeSeriesRecorder(width_seconds=1.0)
        rec.advance(2.0)
        with pytest.raises(ValueError, match="non-finite"):
            rec.advance(now)
        assert rec.current_index == 2

    def test_flush_closes_nonempty_only(self):
        rec = TimeSeriesRecorder(width_seconds=1.0)
        assert rec.flush() is None  # untouched window: nothing to emit
        rec.registry().counter("ops").inc()
        snap = rec.flush()
        assert isinstance(snap, WindowSnapshot)
        assert (snap.start, snap.end) == (0.0, 1.0)  # nominal bounds kept
        assert rec.current_start == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(width_seconds=0.0)

    @pytest.mark.parametrize("width", [0.1, 0.3])
    def test_edges_are_index_times_width_exactly(self, width):
        # accumulating ``start += width`` drifted off ``index * width`` at
        # any non-dyadic width (2,984 of the first 3,000 windows at 0.1)
        count = 10_000
        rec = TimeSeriesRecorder(width_seconds=width)
        closed = rec.advance(count * width)
        assert len(closed) == count
        for window in closed:
            assert window.start == window.index * width
            assert window.end == (window.index + 1) * width
        assert rec.current_start == count * width
        assert rec.next_edge == (count + 1) * width

    @pytest.mark.parametrize("width", [0.1, 0.3])
    def test_event_on_an_edge_lands_in_the_window_it_opens(self, width):
        rec = TimeSeriesRecorder(width_seconds=width)
        windows = []
        for k in (1, 3, 7, 1000, 2999):
            windows.extend(rec.advance(k * width))
            assert rec.current_index == k
            rec.registry().counter("events").inc(1, k=str(k))
        windows.append(rec.flush())
        for window in windows:
            if len(window.registry):
                (key,) = window.registry.get("events").label_keys()
                assert key == (("k", str(window.index)),)


def _adversarial_values() -> list:
    """Values pinned on and a half-ulp around the 4-per-octave log-bucket
    edges (the monotonicity fixtures), plus zeros and a wide-range tail."""
    base = math.log(2.0) / 4
    values = []
    for k in range(-40, 41):
        edge = math.exp(k * base)
        values.extend(
            (edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf))
        )
    values.extend([0.0] * 10)
    values.extend([1e-9, 1e-3, 1.0, 1.0, 1e6])
    return values


class TestMergeEqualsOneShot:
    """Satellite 3: N window snapshots fold into the one-shot histogram."""

    @pytest.mark.parametrize("seed", [0, 7, 2023])
    @pytest.mark.parametrize("n_windows", [2, 5, 16])
    def test_histogram_merge_lossless(self, seed, n_windows):
        values = _adversarial_values()
        rng = random.Random(seed)
        rng.shuffle(values)

        one_shot = MetricsRegistry()
        for v in values:
            one_shot.histogram("lat").observe(v)

        rec = TimeSeriesRecorder(width_seconds=1.0)
        windows = []
        for i, v in enumerate(values):
            # scatter the stream across n_windows windows, uneven splits
            windows.extend(rec.advance(float(rng.randrange(n_windows))))
            rec.registry().histogram("lat").observe(v)
        windows.extend(rec.advance(float(n_windows)))
        assert rec.flush() is None  # everything landed in closed windows

        merged = merge_windows(windows).get("lat")
        ref = one_shot.get("lat")
        assert merged.count() == ref.count() == len(values)
        assert merged.min() == ref.min()
        assert merged.max() == ref.max()
        assert merged.sum() == pytest.approx(ref.sum())
        assert merged.cumulative_buckets() == ref.cumulative_buckets()
        for p in range(0, 101):
            assert merged.percentile(p) == ref.percentile(p), p

    def test_labeled_series_and_counters_survive(self):
        rng = random.Random(42)
        one_shot = MetricsRegistry()
        rec = TimeSeriesRecorder(width_seconds=0.25)
        windows = []
        at = 0.0
        for _ in range(300):
            codec = rng.choice(["zstd", "lz4"])
            v = rng.lognormvariate(-7, 2)
            for reg in (one_shot, rec.registry()):
                reg.histogram("lat").observe(v, codec=codec)
                reg.counter("calls").inc(1, codec=codec)
            at += rng.random() * 0.2
            windows.extend(rec.advance(at))
        tail = rec.flush()
        if tail is not None:
            windows.append(tail)

        merged = merge_windows(windows)
        for codec in ("zstd", "lz4"):
            got, ref = merged.get("lat"), one_shot.get("lat")
            assert got.count(codec=codec) == ref.count(codec=codec)
            for p in (50, 90, 99):
                assert got.percentile(p, codec=codec) == ref.percentile(
                    p, codec=codec
                )
        got_calls = dict(merged.get("calls").samples())
        ref_calls = dict(one_shot.get("calls").samples())
        assert got_calls == ref_calls

    def test_merge_windows_is_associative(self):
        rec = TimeSeriesRecorder(width_seconds=1.0)
        rng = random.Random(9)
        ws = []
        for i in range(6):
            for _ in range(20):
                rec.registry().histogram("h").observe(rng.lognormvariate(0, 1))
            ws.extend(rec.advance(float(i + 1)))
        left = merge_windows([ws[0], ws[1]])
        for w in ws[2:]:
            left.merge(w.registry)
        right = merge_windows(ws)
        assert left.get("h").cumulative_buckets() == right.get(
            "h"
        ).cumulative_buckets()

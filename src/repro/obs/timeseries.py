"""Clock-driven rolling windows over the metric primitives.

The paper's characterization exists because Google's fleet profiler is
*continuous*: compression behavior is a curve over time, not a point.
This module adds that time axis to :mod:`repro.obs`: a
:class:`TimeSeriesRecorder` slices recording into fixed-width windows,
each window a full :class:`~repro.obs.metrics.MetricsRegistry` of its
own, handed to the caller when it closes. Because every metric type
merges associatively, any span of windows folds back into one registry
whose histograms are *exactly* what a one-shot recording over the same
samples would have produced (bucket counts, count/sum, and min/max all
survive the window boundary) — the property the SLO layer's burn-rate
math and the window-merge tests rely on.

Time is whatever the caller says it is:

- simulation drives ``advance(clock.now())`` from a
  :class:`~repro.resilience.clock.SimClock`, so window edges — and
  everything computed from them — are deterministic per seed;
- the chaos runner drives it with *operation index* as the clock, which
  works because the recorder never interprets the unit.

Windows close only when time reaches their end: ``advance`` returns the
newly closed snapshots, ``flush`` force-closes the in-progress window at
end of run, and the recorder keeps neither: whoever reads a window folds
it as it closes (the :class:`~repro.obs.slo.SLOEvaluator` keeps only the
lookback its burn rules read), so no series outlives its readers.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry


class WindowSnapshot:
    """One closed window: ``[start, end)`` plus everything recorded in it."""

    __slots__ = ("index", "start", "end", "registry")

    def __init__(
        self, index: int, start: float, end: float, registry: MetricsRegistry
    ) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.registry = registry

    @property
    def width(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"WindowSnapshot(#{self.index} "
            f"[{self.start:.3f}, {self.end:.3f}) "
            f"{len(self.registry)} families)"
        )


class TimeSeriesRecorder:
    """Fixed-width windows over mergeable metric registries.

    Callers record into :meth:`registry` (the in-progress window) and
    drive time with :meth:`advance`; the recorder owns nothing about
    *what* is recorded. A window that time has skipped entirely still
    closes (empty), so the series has no gaps, and every edge is computed
    as ``index * width`` — never accumulated — so window ``index`` times
    ``width`` is always the window's start, exactly, at any width, and
    recorders of one width share every edge.
    """

    def __init__(self, width_seconds: float) -> None:
        if width_seconds <= 0:
            raise ValueError("width_seconds must be positive")
        self.width = float(width_seconds)
        self._index = 0
        #: end of the in-progress window: nothing closes before this
        self.next_edge = self.width
        self._current = MetricsRegistry()

    # -- recording -----------------------------------------------------------

    def registry(self) -> MetricsRegistry:
        """The in-progress window's registry; record into this. Window
        close and :meth:`flush` read the window through this method, so a
        subclass that buffers what it is told settles its buffer here."""
        return self._current

    @property
    def current_start(self) -> float:
        return self._index * self.width

    # -- time ----------------------------------------------------------------

    def _close_current(self) -> WindowSnapshot:
        snapshot = WindowSnapshot(
            self._index, self.current_start, self.next_edge, self.registry()
        )
        self._index += 1
        self.next_edge = (self._index + 1) * self.width
        self._current = MetricsRegistry()
        return snapshot

    def advance(self, now: float) -> List[WindowSnapshot]:
        """Close every window whose end is at or before ``now``.

        Returns the newly closed snapshots, oldest first (empty list when
        ``now`` is still inside the current window). Time never moves
        backwards; a stale ``now`` is a no-op, matching SimClock's
        monotonic contract. A non-finite ``now`` is a ``ValueError``: no
        number of windows reaches ``inf``, and ``nan`` orders with nothing.
        """
        if not math.isfinite(now):
            raise ValueError(f"cannot advance windows to a non-finite time ({now})")
        closed: List[WindowSnapshot] = []
        while now >= self.next_edge:
            closed.append(self._close_current())
        return closed

    def flush(self) -> Optional[WindowSnapshot]:
        """Force-close the in-progress window (end of run).

        The closed window keeps its nominal ``[start, start + width)``
        bounds so the series stays fixed-width; an untouched (empty)
        current window is not emitted. Returns the snapshot, if any.
        """
        if not len(self.registry()):
            return None
        return self._close_current()


def merge_windows(
    windows: Sequence[WindowSnapshot], into: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Merge window snapshots, oldest first, into ``into`` (a fresh registry
    when None) and return it; associative, lossless for counters and
    histograms. Folding a series a few windows at a time into one registry
    is the same left fold as merging it whole, bit for bit."""
    merged = MetricsRegistry() if into is None else into
    for window in windows:
        merged.merge(window.registry)
    return merged

"""Fleet rollup: fold per-shard window series into one.

The cluster plane records telemetry *per shard* — each node owns a
:class:`~repro.obs.timeseries.TimeSeriesRecorder`, advanced in lockstep
by the cluster simulator's event loop — and every fleet-level number is
derived by merging, never by double recording. Two folds cover it:

- :func:`repro.obs.timeseries.merge_windows` — the whole-run view: fold
  a series of windows into one registry. Because counters add and
  log-bucket histograms merge losslessly (bucket counts, count/sum,
  min/max all survive), the result is *exactly* what one global
  recorder observing the same events would have produced;
  ``tests/obs/test_rollup.py`` and ``tests/test_traffic_ledger.py`` prove
  the equality, the second on real simulations.

- :func:`merge_shard_windows` — the time-series view: align each
  shard's closed windows **by index** and merge the aligned slices into
  one fleet window per index. The alignment rule matters for SLO math:
  a fleet window's ``[start, end)`` span is the *shared* interval, not
  the per-shard sum, so span-normalized signals (goodput bytes/second,
  burn rates over ``sum(w.width)``) read correctly. Concatenating shard
  windows instead would multiply the apparent span by the shard count
  and silently deflate every rate by the same factor.

Shards that joined late or retired early simply have empty (or absent)
windows at some indexes; an absent window contributes nothing to the
merge, which is the correct reading of "this node observed no traffic
then".
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import WindowSnapshot


def merge_shard_windows(
    per_shard: Sequence[Sequence[WindowSnapshot]],
) -> List[WindowSnapshot]:
    """Merge per-shard window series into one fleet series, by index.

    Every input series must use the same window width and the same
    epoch (index 0 starts at the same time) — true by construction for
    recorders driven off one SimClock. Raises ``ValueError`` when two
    shards disagree about a window's bounds, because silently merging
    misaligned windows would corrupt every rate derived from them.
    """
    by_index: Dict[int, List[WindowSnapshot]] = {}
    for series in per_shard:
        for window in series:
            by_index.setdefault(window.index, []).append(window)
    fleet: List[WindowSnapshot] = []
    for index in sorted(by_index):
        slices = by_index[index]
        first = slices[0]
        for other in slices[1:]:
            if other.start != first.start or other.end != first.end:
                raise ValueError(
                    f"window #{index} misaligned across shards: "
                    f"[{first.start}, {first.end}) vs "
                    f"[{other.start}, {other.end})"
                )
        registry = MetricsRegistry()
        for window in slices:
            registry.merge(window.registry)
        fleet.append(
            WindowSnapshot(index, first.start, first.end, registry)
        )
    return fleet

"""Metric primitives: Counter, Gauge, log-bucketed Histogram, and the registry.

The shapes follow the fleet-profiling needs of the paper: counters keyed by
(algorithm, direction, level, stage) labels reproduce the cycle-attribution
tables of Section III, and mergeable log-bucketed histograms give the
percentile-grade block-decode latency view of Fig. 13 without retaining raw
samples. Every type supports ``merge`` so per-shard registries can be
combined associatively into a fleet-wide view.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Type

#: the recording paths take finite values only (chained comparisons against this)
_INF = math.inf

#: canonical label identity: sorted (name, value-as-string) pairs
LabelKey = Tuple[Tuple[str, str], ...]


#: label sets remembered before the memo starts over
_CANONICAL_LIMIT = 4096
#: label items in the order they were passed -> canonical key, for label
#: sets whose values are all exactly ``str``
_CANONICAL: Dict[tuple, LabelKey] = {}


def _canonical(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def label_key(labels: Mapping[str, object]) -> LabelKey:
    """Normalize a label mapping into a hashable, order-independent key.

    A process records through a few hundred distinct label sets millions
    of times, so a set whose values are all ``str`` is built once per
    keyword order and looked up afterwards. Only exact ``str`` values:
    equal strings spell alike, whereas ``1``, ``True`` and ``1.0`` (or
    ``0.0`` and ``-0.0``) are equal, hash alike and spell differently.
    Anything else (unhashable values included) is built every time.
    """
    for value in labels.values():
        if type(value) is not str:
            return _canonical(labels)
    seen_as = tuple(labels.items())
    try:
        return _CANONICAL[seen_as]
    except KeyError:
        if len(_CANONICAL) >= _CANONICAL_LIMIT:
            _CANONICAL.clear()
        key = _CANONICAL[seen_as] = _canonical(labels)
        return key


class Metric:
    """Base class: a named metric family holding one series per label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def merge(self, other: "Metric") -> None:
        raise NotImplementedError

    def spawn_empty(self) -> "Metric":
        """A fresh, zero-valued metric of the same shape (for merging)."""
        return type(self)(self.name, self.help)

    def label_keys(self) -> List[LabelKey]:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        # one chained comparison: a negative, infinite or nan amount all fail it
        if not 0 <= amount < _INF:
            raise ValueError(
                f"counter {self.name} takes a finite amount >= 0 (got {amount})"
            )
        key = label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def samples(self) -> Iterator[Tuple[LabelKey, float]]:
        for key in sorted(self._values):
            yield key, self._values[key]

    def label_keys(self) -> List[LabelKey]:
        return sorted(self._values)

    def merge(self, other: "Metric") -> None:
        if not isinstance(other, Counter):
            raise TypeError(f"cannot merge {other.kind} into counter {self.name}")
        for key, value in other._values.items():
            self._values[key] = self._values.get(key, 0.0) + value


class Gauge(Metric):
    """Point-in-time value. ``merge`` sums series, the multi-shard reading
    (total resident bytes across shards, etc.)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._values.get(label_key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[LabelKey, float]]:
        for key in sorted(self._values):
            yield key, self._values[key]

    def label_keys(self) -> List[LabelKey]:
        return sorted(self._values)

    def merge(self, other: "Metric") -> None:
        if not isinstance(other, Gauge):
            raise TypeError(f"cannot merge {other.kind} into gauge {self.name}")
        for key, value in other._values.items():
            self._values[key] = self._values.get(key, 0.0) + value


class _HistogramSeries:
    """Bucket counts plus exact count/sum/min/max for one label set."""

    __slots__ = ("buckets", "zeros", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        #: observations <= 0 (zero-duration cache hits, empty payloads)
        self.zeros = 0
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf


class Histogram(Metric):
    """Log-bucketed histogram with percentile queries.

    Bucket boundaries are powers of ``2 ** (1 / buckets_per_octave)``, so
    relative quantile error is bounded by half a bucket width (~9% at the
    default 4 buckets per octave) across the full dynamic range — the same
    scheme production latency telemetry (hdrhistogram-style) uses so that
    nanosecond cache hits and second-long compactions share one metric.
    Merging adds bucket counts, which is associative and commutative.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets_per_octave: int = 4
    ) -> None:
        super().__init__(name, help)
        if buckets_per_octave <= 0:
            raise ValueError("buckets_per_octave must be positive")
        self.buckets_per_octave = buckets_per_octave
        self._log_base = math.log(2.0) / buckets_per_octave
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def spawn_empty(self) -> "Histogram":
        return Histogram(self.name, self.help, self.buckets_per_octave)

    # -- recording ---------------------------------------------------------

    def _bucket_upper(self, index: int) -> float:
        return math.exp((index + 1) * self._log_base)

    def _bucket_mid(self, index: int) -> float:
        """Geometric midpoint — the bucket's representative value."""
        return math.exp((index + 0.5) * self._log_base)

    def _reject(self, value: float) -> ValueError:
        return ValueError(
            f"histogram {self.name} takes finite values (got {value})"
        )

    def observe(self, value: float, **labels: object) -> None:
        # The bucket is chosen before any field moves, so a rejected value
        # leaves no trace. nan fails both chained comparisons.
        if 0.0 < value < _INF:
            index = math.floor(math.log(value) / self._log_base)
        elif -_INF < value <= 0.0:
            index = None
        else:
            raise self._reject(value)
        key = label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries()
        series.count += 1
        series.total += value
        if value < series.minimum:
            series.minimum = value
        if value > series.maximum:
            series.maximum = value
        if index is None:
            series.zeros += 1
        else:
            series.buckets[index] = series.buckets.get(index, 0) + 1

    def observe_many(self, values: Sequence[float], **labels: object) -> None:
        """``observe(v, **labels)`` for each ``v`` of ``values``, in order,
        for one label lookup: every field of the series ends up exactly as
        the loop of single calls leaves it (``total`` is added to in the
        same order). All or nothing: one non-finite value rejects the
        batch before the series is touched; an empty batch creates none.
        """
        log, floor, base = math.log, math.floor, self._log_base
        indexes: List[Optional[int]] = []
        for value in values:
            if 0.0 < value < _INF:
                indexes.append(floor(log(value) / base))
            elif -_INF < value <= 0.0:
                indexes.append(None)
            else:
                raise self._reject(value)
        if not indexes:
            return
        key = label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries()
        buckets = series.buckets
        total, minimum, maximum = series.total, series.minimum, series.maximum
        zeros = 0
        for value, index in zip(values, indexes):
            total += value
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
            if index is None:
                zeros += 1
            else:
                buckets[index] = buckets.get(index, 0) + 1
        series.count += len(indexes)
        series.zeros += zeros
        series.total, series.minimum, series.maximum = total, minimum, maximum

    # -- queries -----------------------------------------------------------

    def _get(self, labels: Mapping[str, object]) -> Optional[_HistogramSeries]:
        return self._series.get(label_key(labels))

    def count(self, **labels: object) -> int:
        series = self._get(labels)
        return series.count if series else 0

    def sum(self, **labels: object) -> float:
        series = self._get(labels)
        return series.total if series else 0.0

    def min(self, **labels: object) -> float:
        series = self._get(labels)
        return series.minimum if series and series.count else 0.0

    def max(self, **labels: object) -> float:
        series = self._get(labels)
        return series.maximum if series and series.count else 0.0

    def mean(self, **labels: object) -> float:
        series = self._get(labels)
        if not series or not series.count:
            return 0.0
        return series.total / series.count

    def percentile(self, p: float, **labels: object) -> float:
        """Value at percentile ``p`` (0..100), within one bucket's width."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        series = self._get(labels)
        if series is None or not series.count:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * series.count))
        seen = series.zeros
        if seen >= rank:
            return max(0.0, series.minimum)
        for index in sorted(series.buckets):
            seen += series.buckets[index]
            if seen >= rank:
                estimate = self._bucket_mid(index)
                # exact extremes beat the bucket estimate at the tails
                return min(max(estimate, series.minimum), series.maximum)
        return series.maximum

    def p50(self, **labels: object) -> float:
        return self.percentile(50, **labels)

    def p90(self, **labels: object) -> float:
        return self.percentile(90, **labels)

    def p99(self, **labels: object) -> float:
        return self.percentile(99, **labels)

    def label_keys(self) -> List[LabelKey]:
        return sorted(self._series)

    def cumulative_buckets(
        self, **labels: object
    ) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ascending; for exporters."""
        series = self._get(labels)
        if series is None:
            return []
        out: List[Tuple[float, int]] = []
        running = series.zeros
        if series.zeros:
            out.append((0.0, running))
        for index in sorted(series.buckets):
            running += series.buckets[index]
            out.append((self._bucket_upper(index), running))
        return out

    def merge(self, other: "Metric") -> None:
        if not isinstance(other, Histogram):
            raise TypeError(f"cannot merge {other.kind} into histogram {self.name}")
        if other.buckets_per_octave != self.buckets_per_octave:
            raise ValueError(
                f"histogram {self.name}: bucket schemes differ "
                f"({self.buckets_per_octave} vs {other.buckets_per_octave})"
            )
        for key, theirs in other._series.items():
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries()
            for index, count in theirs.buckets.items():
                series.buckets[index] = series.buckets.get(index, 0) + count
            series.zeros += theirs.zeros
            series.count += theirs.count
            series.total += theirs.total
            series.minimum = min(series.minimum, theirs.minimum)
            series.maximum = max(series.maximum, theirs.maximum)


class MetricsRegistry:
    """Named metric families, creation-ordered; get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: "OrderedDict[str, Metric]" = OrderedDict()

    def _get_or_create(
        self, name: str, cls: Type[Metric], help: str, **kwargs: object
    ) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)  # type: ignore[arg-type]
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets_per_octave: int = 4
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            name, Histogram, help, buckets_per_octave=buckets_per_octave
        )

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        return list(self._metrics.values())

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def clear(self) -> None:
        self._metrics.clear()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (multi-shard aggregation); associative."""
        for metric in other:
            mine = self._metrics.get(metric.name)
            if mine is None:
                mine = metric.spawn_empty()
                self._metrics[metric.name] = mine
            mine.merge(metric)


#: the process-global registry every instrumentation hook records into
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY

"""Compression auto-tuner (paper Section VI-C).

"Service characteristics often change over time. Hence, the optimal
compression configuration is expected to change over time as it depends on
data characteristics. We expect that there is a room for compression
autotuners in this space."

:class:`AutoTuner` watches a stream of data samples, detects drift in their
byte-level characteristics, and re-runs CompOpt only when the data has
actually moved -- the cost/SLO-aware re-tuning loop the paper sketches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

from repro.core.config import CompressionConfig
from repro.core.constraints import Requirement
from repro.core.costmodel import CostModel
from repro.core.engine import CompEngine
from repro.core.optimizer import CompOpt, RankedConfig


def byte_histogram(samples: Sequence[bytes]) -> List[float]:
    """Normalized byte-value histogram over a sample set."""
    counts = [0] * 256
    total = 0
    for sample in samples:
        for byte in sample:
            counts[byte] += 1
        total += len(sample)
    if total == 0:
        return [0.0] * 256
    return [c / total for c in counts]


def histogram_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Total-variation distance between two normalized histograms (0..1)."""
    return 0.5 * sum(abs(x - y) for x, y in zip(a, b))


@dataclass
class TuningEvent:
    """One re-tuning decision."""

    reason: str
    drift: float
    chosen: RankedConfig


class AutoTuner:
    """Drift-aware CompOpt wrapper.

    Call :meth:`observe` with fresh production samples; the tuner retunes
    when (a) it has never tuned, or (b) the byte-level distribution has
    drifted past ``drift_threshold`` total-variation distance from the
    distribution it last tuned on.
    """

    def __init__(
        self,
        cost_model: CostModel,
        candidates: Sequence[CompressionConfig],
        requirements: Sequence[Requirement] = (),
        drift_threshold: float = 0.08,
        window: int = 8,
    ) -> None:
        if not candidates:
            raise ValueError("autotuner needs a candidate grid")
        self.cost_model = cost_model
        self.candidates = list(candidates)
        self.requirements = list(requirements)
        self.drift_threshold = drift_threshold
        self._recent: Deque[bytes] = deque(maxlen=window)
        self._tuned_histogram: Optional[List[float]] = None
        self._current: Optional[RankedConfig] = None
        self.history: List[TuningEvent] = []

    @property
    def current_config(self) -> Optional[CompressionConfig]:
        return self._current.config if self._current else None

    @property
    def current(self) -> Optional[RankedConfig]:
        return self._current

    def observe(self, samples: Sequence[bytes]) -> Optional[TuningEvent]:
        """Feed fresh samples; returns a TuningEvent if a retune happened."""
        for sample in samples:
            if sample:
                self._recent.append(bytes(sample))
        if not self._recent:
            return None
        histogram = byte_histogram(list(self._recent))
        if self._tuned_histogram is None:
            return self._retune("initial tuning", 1.0)
        drift = histogram_distance(histogram, self._tuned_histogram)
        if drift >= self.drift_threshold:
            return self._retune(f"drift {drift:.3f} >= {self.drift_threshold}", drift)
        return None

    def _retune(self, reason: str, drift: float) -> TuningEvent:
        engine = CompEngine(list(self._recent))
        optimizer = CompOpt(engine, self.cost_model, self.requirements)
        result = optimizer.optimize(self.candidates)
        chosen = result.best if result.best is not None else result.best_any
        self._current = chosen
        self._tuned_histogram = byte_histogram(list(self._recent))
        event = TuningEvent(reason=reason, drift=drift, chosen=chosen)
        self.history.append(event)
        return event

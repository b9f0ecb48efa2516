"""The degradation ladder: trade ratio for latency before shedding load.

This is the serving-plane application of bicriteria compression
(Farruggia et al., PAPERS.md): under a latency budget, the right response
to pressure is not to drop requests but to *step down* to a cheaper
configuration on the speed/ratio frontier — give up compression ratio,
win back cycles, keep serving. The ladder is built with the same
machinery CompOpt uses to pick configurations (Section V-A): a
:class:`~repro.core.engine.CompEngine` measures the candidate grid on
representative samples, a :class:`~repro.core.costmodel.CostModel` ranks
it, and the rungs are the Pareto-frontier configurations faster than the
cost-optimal choice, ordered by increasing compression speed.

Rung 0 is the CompOpt winner (what the service runs unpressured). Each
deeper rung is strictly faster and (being frontier points) pays the least
ratio possible for that speed. The last resort — past every rung — is
shedding, which the gateway only reaches when the queue itself is full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import CompressionConfig, config_grid
from repro.core.costmodel import CostModel, CostParameters
from repro.core.engine import CompEngine
from repro.core.optimizer import CompOpt, RankedConfig


@dataclass(frozen=True)
class Rung:
    """One step of the ladder: a config and its measured shape."""

    config: CompressionConfig
    #: modeled compress seconds per input byte on the reference samples
    seconds_per_byte: float
    #: measured compression ratio on the reference samples
    ratio: float
    #: CompOpt total dollar cost (the ranking key rung 0 won on)
    total_cost: float

    def label(self) -> str:
        return self.config.label()


class DegradationLadder:
    """Pressure-indexed list of configurations, best-ratio first."""

    def __init__(
        self,
        rungs: Sequence[Rung],
        thresholds: Optional[Sequence[float]] = None,
    ) -> None:
        if not rungs:
            raise ValueError("a ladder needs at least one rung")
        self.rungs = list(rungs)
        if thresholds is None:
            thresholds = default_thresholds(len(self.rungs))
        thresholds = list(thresholds)
        if len(thresholds) != len(self.rungs) - 1:
            raise ValueError(
                f"{len(self.rungs)} rungs need {len(self.rungs) - 1} "
                f"thresholds, got {len(thresholds)}"
            )
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        self.thresholds = thresholds

    def __len__(self) -> int:
        return len(self.rungs)

    def select(self, pressure: float) -> int:
        """Rung index for a pressure reading (queue depth / capacity).

        Pressure below the first threshold serves at rung 0; each crossed
        threshold steps one rung down the ladder. Pressure past the last
        threshold pins to the fastest rung — there is nothing cheaper to
        give, and the next escalation (shedding) belongs to admission, not
        to this policy.
        """
        index = 0
        for threshold in self.thresholds:
            if pressure >= threshold:
                index += 1
            else:
                break
        return min(index, len(self.rungs) - 1)

    def rung(self, index: int) -> Rung:
        return self.rungs[index]

    def labels(self) -> List[str]:
        return [rung.label() for rung in self.rungs]


#: pressure at which the first / just past the last rung step engages
_FIRST_STEP_PRESSURE = 0.3
_LAST_STEP_PRESSURE = 0.9


def default_thresholds(rung_count: int) -> List[float]:
    """Evenly spread pressure thresholds in ``[0.3, 0.9)``.

    With the default admission shed point at pressure 1.0 this leaves the
    whole ladder engaged strictly before any shedding can begin.
    """
    steps = rung_count - 1
    if steps <= 0:
        return []
    span = _LAST_STEP_PRESSURE - _FIRST_STEP_PRESSURE
    return [_FIRST_STEP_PRESSURE + i * span / steps for i in range(steps)]


def _rung_from_ranked(ranked: RankedConfig) -> Rung:
    metrics = ranked.metrics
    seconds = metrics.compress_seconds
    per_byte = seconds / metrics.input_bytes if metrics.input_bytes else 0.0
    return Rung(
        config=ranked.config,
        seconds_per_byte=per_byte,
        ratio=metrics.ratio,
        total_cost=ranked.total_cost,
    )


def build_ladder(
    samples: Sequence[bytes],
    algorithms: Sequence[str] = ("zstd", "lz4"),
    levels: Optional[Sequence[int]] = None,
    max_rungs: int = 4,
    graphs: Sequence[str] = (),
) -> DegradationLadder:
    """Measure a candidate grid and assemble the ladder.

    Rung 0 is CompOpt's cheapest configuration; the remaining rungs are
    the speed/ratio Pareto frontier restricted to configurations strictly
    faster than rung 0, ascending in speed, downsampled to ``max_rungs``
    total (keeping the fastest so the ladder always ends at its floor).

    ``graphs`` adds trained graph codecs (:mod:`repro.graphs`) to the
    grid by name — ``("record",)`` enters ``graph:record`` as a
    candidate. Graph rungs compete on exactly the same cost model as the
    flat configs; an empty tuple (the default) keeps ladders
    byte-identical to the pre-graph behavior.
    """
    if max_rungs < 1:
        raise ValueError("max_rungs must be at least 1")
    cost_model = CostModel(CostParameters.from_price_book(beta=1e-6))
    engine = CompEngine(samples)
    grid = config_grid(algorithms, levels=levels)
    grid.extend(
        CompressionConfig(f"graph:{name}", 1) for name in graphs
    )
    result = CompOpt(engine, cost_model).optimize(grid)
    preferred = result.best if result.best is not None else result.best_any
    if preferred is None:
        raise ValueError("empty candidate grid")
    frontier = result.pareto_frontier()
    faster = [
        r
        for r in frontier
        if r.metrics.compression_speed > preferred.metrics.compression_speed
        and r.config != preferred.config
    ]
    faster.sort(key=lambda r: r.metrics.compression_speed)
    if len(faster) > max_rungs - 1:
        faster = _downsample_keep_last(faster, max_rungs - 1)
    rungs = [_rung_from_ranked(preferred)] + [_rung_from_ranked(r) for r in faster]
    return DegradationLadder(rungs)


def _downsample_keep_last(
    ranked: List[RankedConfig], count: int
) -> List[RankedConfig]:
    """Pick ``count`` entries evenly, always keeping the last (fastest)."""
    if count <= 0:
        return []
    if count == 1:
        return [ranked[-1]]
    step = (len(ranked) - 1) / (count - 1)
    indices = sorted({round(i * step) for i in range(count)})
    return [ranked[i] for i in indices]

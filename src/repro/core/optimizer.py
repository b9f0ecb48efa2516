"""The CompOpt facade: candidate search, constraint filtering, cost ranking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.config import CompressionConfig
from repro.core.constraints import Requirement
from repro.core.costmodel import CostBreakdown, CostModel
from repro.core.engine import CompEngine
from repro.core.metrics import CompressionMetrics
from repro.core.search import SearchStrategy, ExhaustiveSearch


@dataclass(frozen=True)
class RankedConfig:
    """One evaluated candidate: config, metrics, cost, feasibility."""

    config: CompressionConfig
    metrics: CompressionMetrics
    cost: CostBreakdown
    feasible: bool

    @property
    def total_cost(self) -> float:
        return self.cost.total


@dataclass
class OptimizationResult:
    """Everything CompOpt learned about the candidate grid."""

    ranked: List[RankedConfig] = field(default_factory=list)

    @property
    def best(self) -> Optional[RankedConfig]:
        """Cheapest feasible configuration (None if nothing is feasible)."""
        feasible = [r for r in self.ranked if r.feasible]
        return min(feasible, key=lambda r: r.total_cost) if feasible else None

    @property
    def best_any(self) -> Optional[RankedConfig]:
        """Cheapest configuration ignoring requirements."""
        return min(self.ranked, key=lambda r: r.total_cost) if self.ranked else None

    @property
    def worst(self) -> Optional[RankedConfig]:
        """Most expensive configuration (the paper's comparison baseline)."""
        return max(self.ranked, key=lambda r: r.total_cost) if self.ranked else None

    def pareto_frontier(
        self,
        x_metric: str = "compression_speed",
        y_metric: str = "ratio",
        feasible_only: bool = False,
    ) -> List[RankedConfig]:
        """Non-dominated candidates, maximizing both metrics.

        The speed/ratio frontier is the curve the paper's Figs 1, 10-12
        plot; any configuration below it is strictly worse on both axes.
        Returned in ascending ``x_metric`` order (the paper's right-to-left
        level traversal).
        """
        pool = [r for r in self.ranked if r.feasible] if feasible_only else list(
            self.ranked
        )
        frontier: List[RankedConfig] = []
        for candidate in pool:
            cx = getattr(candidate.metrics, x_metric)
            cy = getattr(candidate.metrics, y_metric)
            dominated = any(
                (getattr(other.metrics, x_metric) >= cx
                 and getattr(other.metrics, y_metric) >= cy
                 and (getattr(other.metrics, x_metric) > cx
                      or getattr(other.metrics, y_metric) > cy))
                for other in pool
                if other is not candidate
            )
            if not dominated:
                frontier.append(candidate)
        frontier.sort(key=lambda r: getattr(r.metrics, x_metric))
        return frontier


class CompOpt:
    """Searches for the cheapest configuration meeting the requirements.

    "CompOpt is a simple first-order optimizer that searches for the best
    compression option for a given service based on cost estimation and
    service requirements" (Section V-A). Exhaustive search is the default,
    as in the paper; random and evolutionary strategies are available for
    larger spaces (:mod:`repro.core.search`).
    """

    def __init__(
        self,
        engine: CompEngine,
        cost_model: CostModel,
        requirements: Sequence[Requirement] = (),
        strategy: Optional[SearchStrategy] = None,
    ) -> None:
        self.engine = engine
        self.cost_model = cost_model
        self.requirements = list(requirements)
        self.strategy = strategy if strategy is not None else ExhaustiveSearch()

    def evaluate(self, config: CompressionConfig) -> RankedConfig:
        """Measure and cost one candidate."""
        metrics = self.engine.measure(config)
        cost = self.cost_model.evaluate(metrics)
        feasible = all(req.satisfied(metrics) for req in self.requirements)
        return RankedConfig(config, metrics, cost, feasible)

    def optimize(self, candidates: Sequence[CompressionConfig]) -> OptimizationResult:
        """Run the search strategy over ``candidates`` and rank everything."""
        evaluated = self.strategy.run(candidates, self.evaluate)
        result = OptimizationResult(
            ranked=sorted(evaluated, key=lambda r: r.total_cost)
        )
        return result

"""CompOpt: the paper's first-order compression cost optimizer (Section V).

CompOpt searches the configuration space (algorithm x level x block size)
for the cheapest option that meets a service's requirements:

1. :class:`~repro.core.engine.CompEngine` generates candidate configurations
   and runs them on user-supplied sample data, producing
   :class:`~repro.core.metrics.CompressionMetrics` (ratio, compression
   speed, decompression speed) per candidate.
2. :class:`~repro.core.costmodel.CostModel` implements equations (1)-(4):
   compute, storage, and network dollar costs from the metrics and the
   service's alpha coefficients, sampling rate beta, and retention R.
3. :class:`~repro.core.optimizer.CompOpt` filters candidates through the
   service requirements (min compression speed, max decompression latency,
   ...) and returns configurations ranked by total cost.
4. :class:`~repro.core.compsim.CompSim` models hardware accelerators as
   "just another compressor" with a speed multiplier gamma and dedicated
   compute pricing, exactly as Section V-A describes.
"""

from repro.core.config import CompressionConfig
from repro.core.metrics import CompressionMetrics
from repro.core.engine import CompEngine
from repro.core.costmodel import CostModel, CostParameters, CostBreakdown
from repro.core.constraints import (
    MaxBlockDecodeLatency,
    MinCompressionSpeed,
    Requirement,
)
from repro.core.optimizer import CompOpt, OptimizationResult, RankedConfig
from repro.core.compsim import CompSim
from repro.core.autotuner import AutoTuner, TuningEvent
from repro.core.categories import (
    OffloadAdvice,
    WorkloadCategory,
    WorkloadTraits,
    classify_workload,
    offload_recommendation,
)
from repro.core.pricing import PriceBook, DEFAULT_PRICES

__all__ = [
    "CompressionConfig",
    "CompressionMetrics",
    "CompEngine",
    "CostModel",
    "CostParameters",
    "CostBreakdown",
    "Requirement",
    "MinCompressionSpeed",
    "MaxBlockDecodeLatency",
    "CompOpt",
    "OptimizationResult",
    "RankedConfig",
    "CompSim",
    "AutoTuner",
    "TuningEvent",
    "WorkloadCategory",
    "WorkloadTraits",
    "classify_workload",
    "offload_recommendation",
    "OffloadAdvice",
    "PriceBook",
    "DEFAULT_PRICES",
]

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

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.autotuner": ("AutoTuner", "TuningEvent"),
        "repro.core.categories": (
            "OffloadAdvice",
            "WorkloadCategory",
            "WorkloadTraits",
            "classify_workload",
            "offload_recommendation",
        ),
        "repro.core.compsim": ("CompSim",),
        "repro.core.config": ("CompressionConfig",),
        "repro.core.constraints": (
            "MaxBlockDecodeLatency",
            "MinCompressionSpeed",
            "Requirement",
        ),
        "repro.core.costmodel": ("CostBreakdown", "CostModel", "CostParameters"),
        "repro.core.engine": ("CompEngine",),
        "repro.core.metrics": ("CompressionMetrics",),
        "repro.core.optimizer": ("CompOpt", "OptimizationResult", "RankedConfig"),
        "repro.core.pricing": ("DEFAULT_PRICES", "PriceBook"),
    },
)

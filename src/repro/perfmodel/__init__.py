"""Calibrated machine model: operation counters -> cycles -> throughput.

Pure-Python codecs are orders of magnitude slower than the C libraries the
paper profiles, so wall-clock timing of this reproduction would distort every
speed-dependent figure. Instead, each codec reports how much work each
pipeline stage performed (:class:`repro.codecs.StageCounters`) and this
module converts the counts into cycles on a nominal datacenter core using
per-codec cost coefficients calibrated against widely published lzbench-style
throughput numbers (DESIGN.md section 1.2).

Wall-clock measurement remains available via ``timing="wallclock"`` in
:class:`repro.core.engine.CompEngine` for honesty checks.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.perfmodel.accelerator": ("HardwareAccelerator",),
        "repro.perfmodel.machine": (
            "CostCoefficients",
            "DEFAULT_MACHINE",
            "MachineModel",
            "StageBreakdown",
        ),
    },
)

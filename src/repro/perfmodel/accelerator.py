"""Hardware accelerator model (the paper's CompSim speed treatment).

The paper's CompSim estimates an accelerator's (de)compression speed by
multiplying a measured software speed by a factor gamma, and lets the
designer supply a separate compute-cost coefficient for accelerator cycles
(Section V-A). :class:`HardwareAccelerator` implements exactly that: it wraps
a software codec (possibly a simplified HW-friendly variant with, e.g., a
restricted match window) and scales its modeled speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.codecs.base import Compressor, StageCounters
from repro.perfmodel.machine import DEFAULT_MACHINE


@dataclass(frozen=True)
class HardwareAccelerator:
    """Speed-multiplier model of a compression accelerator.

    ``gamma`` multiplies both compression and decompression speed of the
    wrapped codec (set ``decompress_gamma`` to scale them differently);
    ``offload_overhead_seconds`` is a fixed per-call cost for crossing to the
    accelerator, which the paper warns "can often nullify the benefits" for
    small blocks (Section VI-B).
    """

    name: str
    codec: Compressor
    gamma: float = 10.0
    decompress_gamma: Optional[float] = None
    offload_overhead_seconds: float = 0.0

    def compress_seconds(self, counters: StageCounters) -> float:
        base = DEFAULT_MACHINE.compress_seconds(self.codec.name, counters)
        return base / self.gamma + self.offload_overhead_seconds

    def decompress_seconds(self, counters: StageCounters) -> float:
        gamma = self.decompress_gamma if self.decompress_gamma else self.gamma
        base = DEFAULT_MACHINE.decompress_seconds(self.codec.name, counters)
        return base / gamma + self.offload_overhead_seconds

    def compress_speed(self, counters: StageCounters) -> float:
        seconds = self.compress_seconds(counters)
        return counters.bytes_in / seconds if seconds > 0 else float("inf")

    def decompress_speed(self, counters: StageCounters) -> float:
        seconds = self.decompress_seconds(counters)
        return counters.bytes_out / seconds if seconds > 0 else float("inf")

"""CompSim: evaluating hardware-accelerator candidates inside CompOpt.

"CompOpt also provides CompSim, an interface for future compression
accelerator modeling ... HW developers can implement their simplified
version of the compression algorithm in CompSim ... the hardware designer
can set a multiplication factor gamma ... CompOpt treats CompSim as another
compressor when evaluating different compression configuration candidates"
(Section V-A).
"""

from __future__ import annotations

from dataclasses import replace

from repro.codecs.base import StageCounters
from repro.codecs.matchfinders.base import MatchFinderParams
from repro.codecs.zstd.codec import ZstdCompressor
from repro.core.engine import CompEngine
from repro.perfmodel.accelerator import HardwareAccelerator


class WindowLimitedZstd(ZstdCompressor):
    """A HW-implementation-friendly Zstd variant with a fixed match window.

    Accelerators cannot afford software's flexible windows; the match-window
    sweep of sensitivity study 3 (Fig. 16) searches for the smallest window
    whose cost reaches the software plateau. Instances are registered with
    the codec registry under ``zstd-w<log>``.
    """

    def __init__(self, window_log: int) -> None:
        if not 10 <= window_log <= 27:
            raise ValueError("window_log must be in 10..27")
        self.window_log = window_log
        self.name = f"zstd-w{window_log}"

    def params_for_level(self, level: int, input_size: int = 0) -> MatchFinderParams:
        params = super().params_for_level(level, input_size)
        return replace(
            params,
            window_log=min(params.window_log, self.window_log),
            # A smaller window needs a proportionally smaller hash table.
            hash_log=min(params.hash_log, max(6, self.window_log - 2)),
        )


class CompSim:
    """Builds accelerator candidates and registers them with a CompEngine."""

    def __init__(self, engine: CompEngine) -> None:
        self.engine = engine

    def add_accelerator(
        self, name: str, window_log: int, gamma: float = 10.0
    ) -> HardwareAccelerator:
        """Register a :class:`WindowLimitedZstd` accelerator ``gamma`` times
        faster than software; returns the accelerator."""
        accelerator = HardwareAccelerator(
            name=name, codec=WindowLimitedZstd(window_log), gamma=gamma
        )
        self.engine.register_accelerator(accelerator)
        return accelerator

"""Service requirements that candidate configurations must satisfy.

The sensitivity studies gate candidates on requirements before cost ranking:
ADS1 requires a minimum compression speed (200 MB/s in study 1), KVSTORE1 a
maximum decompression latency per block (0.08 ms in study 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import CompressionMetrics


class Requirement:
    """A predicate over measured metrics."""

    def satisfied(self, metrics: CompressionMetrics) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class MinCompressionSpeed(Requirement):
    """Compression speed must be at least ``bytes_per_second``."""

    bytes_per_second: float

    def satisfied(self, metrics: CompressionMetrics) -> bool:
        return metrics.compression_speed >= self.bytes_per_second

    def describe(self) -> str:
        return f"compression speed >= {self.bytes_per_second / 1e6:.0f} MB/s"


@dataclass(frozen=True)
class MaxBlockDecodeLatency(Requirement):
    """Mean per-block decompression time must not exceed ``seconds``."""

    seconds: float

    def satisfied(self, metrics: CompressionMetrics) -> bool:
        return metrics.decode_seconds_per_block <= self.seconds

    def describe(self) -> str:
        return f"block decode latency <= {self.seconds * 1e3:.2f} ms"

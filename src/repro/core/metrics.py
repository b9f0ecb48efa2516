"""Compression metrics: the three quantities the paper evaluates.

"There are three important compression metrics ...: compression ratio,
compression speed, and decompression speed" (Section I). Block-granular use
cases additionally care about decompression time per block (Section IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CompressionMetrics:
    """Measured performance of one configuration on one sample set."""

    #: original bytes / compressed bytes (higher is better)
    ratio: float
    #: bytes/second of input consumed while compressing
    compression_speed: float
    #: bytes/second of output produced while decompressing
    decompression_speed: float
    #: total input bytes measured
    input_bytes: int
    #: total compressed bytes produced
    compressed_bytes: int
    #: number of blocks the samples were split into
    block_count: int
    #: mean seconds to decompress one block (read-latency driver, Fig. 13)
    decode_seconds_per_block: float
    #: share of compression cycles spent in match finding (Fig. 7's split)
    match_finding_share: float = 0.0

    @property
    def compress_seconds(self) -> float:
        """Total seconds spent compressing the sample set."""
        if self.compression_speed <= 0:
            return 0.0
        return self.input_bytes / self.compression_speed

    @property
    def decompress_seconds(self) -> float:
        """Total seconds spent decompressing the sample set.

        ``decompression_speed`` is measured in bytes of *output* produced
        per second, and decompressing the sample set reproduces the
        original data, so the output volume equals ``input_bytes`` — not
        ``compressed_bytes``, which is the (smaller) consumed volume.
        Dividing output bytes by output rate is the exact inverse of how
        :class:`repro.core.engine.CompEngine` derives the speed
        (``input_bytes / decompress_seconds``), so the round trip is
        lossless.
        """
        if self.decompression_speed <= 0:
            return 0.0
        output_bytes = self.input_bytes  # decompression restores the input
        return output_bytes / self.decompression_speed

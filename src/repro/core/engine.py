"""CompEngine: run candidate configurations on sample data.

"CompEngine runs candidate compression options with the sample data, which
are then coupled with the corresponding compression ratio, compression
speed, and decompression speed" (Section V-A).

Speeds come from the calibrated machine model (``DEFAULT_MACHINE``) by default
(``timing="modeled"``); ``timing="wallclock"`` measures the pure-Python
codecs directly for honesty checks.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.codecs.base import Compressor, get_codec
from repro.codecs.base import StageCounters
from repro.core.config import CompressionConfig
from repro.core.metrics import CompressionMetrics
from repro.perfmodel.accelerator import HardwareAccelerator
from repro.perfmodel.machine import DEFAULT_MACHINE


class CompEngine:
    """Measures compression configurations against a sample set.

    Results are cached per (config, dictionary) so that repeated optimizer
    passes over the same grid don't recompress.
    """

    def __init__(
        self,
        samples: Sequence[bytes],
        timing: str = "modeled",
        dictionary: Optional[bytes] = None,
    ) -> None:
        if timing not in ("modeled", "wallclock"):
            raise ValueError("timing must be 'modeled' or 'wallclock'")
        self.samples = [bytes(s) for s in samples]
        if not self.samples:
            raise ValueError("CompEngine needs at least one sample")
        self.timing = timing
        self.dictionary = dictionary
        self._accelerators: Dict[str, HardwareAccelerator] = {}
        self._cache: Dict[Tuple[CompressionConfig, bool], CompressionMetrics] = {}

    # -- accelerator registration (used by CompSim) -------------------------

    def register_accelerator(self, accelerator: HardwareAccelerator) -> None:
        """Expose an accelerator as a pseudo-algorithm named after it."""
        self._accelerators[accelerator.name] = accelerator

    def _resolve(self, algorithm: str) -> Tuple[Compressor, Optional[HardwareAccelerator]]:
        if algorithm in self._accelerators:
            accelerator = self._accelerators[algorithm]
            return accelerator.codec, accelerator
        return get_codec(algorithm), None

    # -- measurement ---------------------------------------------------------

    def _blocks(self, block_size: Optional[int]) -> Iterable[bytes]:
        for sample in self.samples:
            if block_size is None or len(sample) <= block_size:
                yield sample
            else:
                for start in range(0, len(sample), block_size):
                    yield sample[start : start + block_size]

    def measure(
        self, config: CompressionConfig, use_dictionary: bool = False
    ) -> CompressionMetrics:
        """Compress and decompress every sample block under ``config``."""
        key = (config, use_dictionary)
        if key in self._cache:
            return self._cache[key]
        codec, accelerator = self._resolve(config.algorithm)
        dictionary = self.dictionary if use_dictionary else None

        comp_counters = StageCounters()
        decomp_counters = StageCounters()
        input_bytes = 0
        compressed_bytes = 0
        block_count = 0
        wall_compress = 0.0
        wall_decompress = 0.0
        mf_cycles = 0.0
        total_cycles = 0.0
        decode_seconds_total = 0.0

        for block in self._blocks(config.block_size):
            # repro: lint-ok[D001] -- wall_* are informational measurements;
            # every deterministic output (cost, speed) uses modeled cycles
            start = time.perf_counter()
            result = codec.compress(block, config.level, dictionary=dictionary)
            wall_compress += time.perf_counter() - start  # repro: lint-ok[D001] -- informational wall measurement
            # repro: lint-ok[D001] -- informational wall measurement
            start = time.perf_counter()
            restored = codec.decompress(result.data, dictionary=dictionary)
            wall_decompress += time.perf_counter() - start  # repro: lint-ok[D001] -- informational wall measurement
            if restored.data != block:
                raise AssertionError(
                    f"round-trip failure for {config.label()} -- codec bug"
                )
            comp_counters.merge(result.counters)
            decomp_counters.merge(restored.counters)
            input_bytes += len(block)
            compressed_bytes += len(result.data)
            block_count += 1
            breakdown = DEFAULT_MACHINE.compress_breakdown(codec.name, result.counters)
            mf_cycles += breakdown.match_finding
            total_cycles += breakdown.total
            if accelerator is not None:
                decode_seconds_total += accelerator.decompress_seconds(restored.counters)
            else:
                decode_seconds_total += DEFAULT_MACHINE.decompress_seconds(
                    codec.name, restored.counters
                )

        if self.timing == "wallclock":
            compress_seconds = wall_compress
            decompress_seconds = wall_decompress
        elif accelerator is not None:
            compress_seconds = accelerator.compress_seconds(comp_counters)
            decompress_seconds = accelerator.decompress_seconds(decomp_counters)
        else:
            compress_seconds = DEFAULT_MACHINE.compress_seconds(codec.name, comp_counters)
            decompress_seconds = DEFAULT_MACHINE.decompress_seconds(
                codec.name, decomp_counters
            )

        metrics = CompressionMetrics(
            ratio=input_bytes / compressed_bytes if compressed_bytes else 1.0,
            compression_speed=input_bytes / compress_seconds if compress_seconds else 0.0,
            decompression_speed=input_bytes / decompress_seconds
            if decompress_seconds
            else 0.0,
            input_bytes=input_bytes,
            compressed_bytes=compressed_bytes,
            block_count=block_count,
            decode_seconds_per_block=decode_seconds_total / block_count
            if block_count
            else 0.0,
            match_finding_share=mf_cycles / total_cycles if total_cycles else 0.0,
        )
        self._cache[key] = metrics
        return metrics

"""Ads inference front-end: per-model request compression over a channel."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.codecs.base import get_codec
from repro.corpus.embeddings import ADS_MODELS, generate_ads_request
from repro.perfmodel.machine import DEFAULT_MACHINE
from repro.services.rpc import Channel

#: the ranking model's own compute, modeled cycles per payload byte
_INFERENCE_CYCLES_PER_BYTE = 170.0


@dataclass
class AdsRequestStats:
    """Per-model results of serving a batch of inference requests."""

    model: str
    requests: int = 0
    raw_bytes: int = 0
    wire_bytes: int = 0
    latencies_seconds: List[float] = field(default_factory=list)
    inference_cycles: float = 0.0
    compression_cycles: float = 0.0

    @property
    def wire_ratio(self) -> float:
        return self.raw_bytes / self.wire_bytes if self.wire_bytes else 1.0

    @property
    def mean_latency_seconds(self) -> float:
        if not self.latencies_seconds:
            return 0.0
        return sum(self.latencies_seconds) / len(self.latencies_seconds)

    @property
    def zstd_cycle_share(self) -> float:
        total = self.inference_cycles + self.compression_cycles
        return self.compression_cycles / total if total else 0.0


class AdsInferenceService:
    """Serves ranking requests whose payloads travel compressed.

    The ranking model's own compute is billed per payload byte
    (``_INFERENCE_CYCLES_PER_BYTE``) so that compression's share of service
    cycles (Fig. 6) and the latency budget both come out of one account.
    """

    def __init__(self, level: int = 1, compress_requests: bool = True) -> None:
        self.codec = get_codec("zstd")
        self.level = level
        self.channel = Channel(
            codec=self.codec, level=level, compress=compress_requests
        )

    def serve_batch(
        self, model: str, request_count: int, seed: int = 0
    ) -> AdsRequestStats:
        """Generate and serve ``request_count`` requests for ``model``."""
        if model not in ADS_MODELS:
            raise ValueError(f"unknown ads model {model!r}")
        stats = AdsRequestStats(model=model)
        for index in range(request_count):
            payload = generate_ads_request(model, seed=seed + index)
            before_comp = self.channel.stats.compress_counters.copy()
            before_decomp = self.channel.stats.decompress_counters.copy()
            received, elapsed = self.channel.send(payload)
            if received != payload:
                raise AssertionError("request corrupted in transit")
            inference_cycles = _INFERENCE_CYCLES_PER_BYTE * len(payload)
            elapsed += inference_cycles / DEFAULT_MACHINE.frequency_hz
            stats.requests += 1
            stats.raw_bytes += len(payload)
            stats.latencies_seconds.append(elapsed)
            stats.inference_cycles += inference_cycles
            if self.channel.compress:
                comp_cycles = DEFAULT_MACHINE.compress_cycles(
                    self.codec.name,
                    _delta(before_comp, self.channel.stats.compress_counters),
                )
                decomp_cycles = DEFAULT_MACHINE.decompress_cycles(
                    self.codec.name,
                    _delta(before_decomp, self.channel.stats.decompress_counters),
                )
                stats.compression_cycles += comp_cycles + decomp_cycles
        stats.wire_bytes = self.channel.stats.wire_bytes
        return stats


def _delta(before, after):
    """Counter difference (after - before) as a new counter set."""
    from dataclasses import fields

    from repro.codecs.base import StageCounters

    result = StageCounters()
    for f in fields(StageCounters):
        setattr(result, f.name, getattr(after, f.name) - getattr(before, f.name))
    return result

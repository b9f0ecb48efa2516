"""The paper's analytical cost model, equations (1)-(4).

For a configuration x measured over samples S::

    c_compute(x) = sum_s  alpha_compute * B * Size(s) / (CompSpeed(x, s) * beta)   (1)
    c_storage(x) = sum_s  alpha_storage * B * R * Size(s) / (CompRatio(x, s) * beta)  (2)
    c_network(x) = sum_s  alpha_network * B * Size(s) / (CompRatio(x, s) * beta)   (3)
    x_opt = argmin_x (c_compute + c_storage + c_network)                           (4)

``beta`` is the sampling rate (samples observed / total compression calls in
the service), used to extrapolate from the sample set to the service's full
volume. ``R`` is retention in days. The alphas carry the dollar rates; with
:class:`~repro.core.pricing.PriceBook` defaults, costs come out in dollars.

As an extension (disabled by default to stay faithful to the paper's
equations), ``reads_per_write`` adds decompression compute for read-heavy
services.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import CompressionMetrics
from repro.core.pricing import DEFAULT_PRICES


@dataclass(frozen=True)
class CostParameters:
    """Service-specific cost coefficients and requirements context."""

    #: $ per second of compression compute (alpha_compute * B)
    alpha_compute: float
    #: $ per stored byte-day (alpha_storage * B)
    alpha_storage: float
    #: $ per transferred byte (alpha_network * B)
    alpha_network: float
    #: sampling rate beta: fraction of the service's calls in the sample set
    beta: float = 1.0
    #: average retention R, days
    retention_days: float = 30.0
    #: decompressions per compression counted into compute cost (extension;
    #: 0 keeps equation (1) exactly as published)
    reads_per_write: float = 0.0

    @classmethod
    def from_price_book(
        cls,
        storage_kind: str = "warm",
        beta: float = 1.0,
        retention_days: float = 30.0,
        storage_weight: float = 1.0,
        network_weight: float = 1.0,
    ) -> "CostParameters":
        """Derive alphas from ``DEFAULT_PRICES``, with per-service weighting.

        Setting a weight to 0 removes that term, e.g. ADS1 sets
        ``storage_weight=0`` ("storage cost is not important because the
        intermediate data is not stored") and KVSTORE1 sets
        ``network_weight=0``.
        """
        prices = DEFAULT_PRICES
        storage_rate = (
            prices.flash_byte_day if storage_kind == "flash" else prices.storage_byte_day
        )
        return cls(
            alpha_compute=prices.compute_core_second,
            alpha_storage=storage_rate * storage_weight,
            alpha_network=prices.network_byte * network_weight,
            beta=beta,
            retention_days=retention_days,
        )


@dataclass(frozen=True)
class CostBreakdown:
    """Dollar costs of one configuration, by resource."""

    compute: float
    storage: float
    network: float

    @property
    def total(self) -> float:
        return self.compute + self.storage + self.network


class CostModel:
    """Evaluates equations (1)-(3) for measured metrics."""

    def __init__(self, parameters: CostParameters) -> None:
        if parameters.beta <= 0:
            raise ValueError("sampling rate beta must be positive")
        self.parameters = parameters

    def evaluate(self, metrics: CompressionMetrics) -> CostBreakdown:
        """Cost breakdown for one configuration's measured metrics."""
        p = self.parameters
        scale = 1.0 / p.beta
        compress_seconds = metrics.compress_seconds
        if p.reads_per_write > 0:
            compress_seconds += p.reads_per_write * metrics.decompress_seconds
        compute = p.alpha_compute * compress_seconds * scale
        compressed = metrics.input_bytes / metrics.ratio if metrics.ratio else 0.0
        storage = p.alpha_storage * p.retention_days * compressed * scale
        network = p.alpha_network * compressed * scale
        return CostBreakdown(compute=compute, storage=storage, network=network)

    def total(self, metrics: CompressionMetrics) -> float:
        return self.evaluate(metrics).total

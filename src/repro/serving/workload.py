"""Seeded open-loop workload generation for the serving plane.

Open-loop means arrivals do not wait for completions — the defining
property of datacenter overload (users keep clicking whether or not the
service keeps up), and the reason an admission controller is needed at
all. Two arrival processes:

- ``poisson`` — homogeneous Poisson at ``rate_rps`` (exponential
  inter-arrivals);
- ``diurnal`` — an inhomogeneous Poisson whose rate follows a sinusoidal
  day curve, ``rate * (1 + amplitude * sin(2*pi*t/period))``, generated
  by thinning a homogeneous process at the peak rate. One simulated
  "day" is compressed to ``period`` seconds, the usual trick for making
  a diurnal study runnable.

The tenant mix and payload shapes come from the same places the rest of
the repository gets its truth: tenants are derived from the fleet
registry (:mod:`repro.fleet.profiles` — category, traffic weight, and
lognormal payload-size parameters), and payload *content* comes from the
:mod:`repro.corpus` generators for that category, sliced from one
pre-generated corpus per tenant so a 10k-request run stays cheap.

Everything draws from one :class:`~repro.corpus.SeededSampler`, so the
full request sequence is a pure function of ``(tenants, rate, duration,
seed, process)``. :meth:`WorkloadGenerator.generate` yields that
sequence one request at a time, so a run holds only the requests it has
drawn and not yet finished with.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.corpus import (
    CACHE1_TYPES,
    SeededSampler,
    generate_ads_request,
    generate_cache_items,
    generate_logs,
    generate_records,
)
from repro.fleet.profiles import DEFAULT_FLEET
from repro.serving.queue import ServingRequest


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic shape."""

    name: str
    #: relative arrival share and fair-queue weight
    weight: float
    #: lognormal payload size parameters (median bytes, sigma)
    median_bytes: int
    sigma: float
    #: per-request deadline, seconds after arrival (inf = none)
    deadline_seconds: float
    #: corpus family the payload bytes come from
    corpus: str = "records"


#: deadline budgets per fleet category, seconds — tight for interactive
#: categories, loose for batch (the Section-IV requirements in miniature)
_CATEGORY_DEADLINES = {
    "Cache": 0.05,
    "Key-Value Store": 0.10,
    "Web": 0.20,
    "Feed": 0.10,
    "Ads": 0.50,
    "Data Warehouse": 5.0,
}

#: corpus family per fleet category
_CATEGORY_CORPUS = {
    "Cache": "cache",
    "Key-Value Store": "records",
    "Web": "logs",
    "Feed": "records",
    "Ads": "ads",
    "Data Warehouse": "logs",
}


def tenants_from_fleet(
    categories: Sequence[str] = ("Cache", "Key-Value Store", "Web", "Ads"),
    max_median_bytes: int = 16384,
) -> List[TenantSpec]:
    """One tenant per category: its biggest compression user.

    The tenant's weight is the service's share of fleet compression
    cycles (compute share x compression share), its payload sizes are the
    profile's lognormal block-size parameters (clamped so the pure-Python
    codecs stay fast), and its deadline follows the category.
    """
    tenants: List[TenantSpec] = []
    for category in categories:
        candidates = [p for p in DEFAULT_FLEET if p.category == category]
        if not candidates:
            raise ValueError(f"no fleet profile in category {category!r}")
        top = max(
            candidates,
            key=lambda p: p.fleet_compute_share * p.compression_share,
        )
        median, sigma = top.block_size
        tenants.append(
            TenantSpec(
                name=top.name,
                weight=top.fleet_compute_share * top.compression_share,
                median_bytes=min(median, max_median_bytes),
                sigma=sigma,
                deadline_seconds=_CATEGORY_DEADLINES.get(category, 1.0),
                corpus=_CATEGORY_CORPUS.get(category, "records"),
            )
        )
    total = sum(t.weight for t in tenants)
    return [
        TenantSpec(
            t.name,
            t.weight / total,
            t.median_bytes,
            t.sigma,
            t.deadline_seconds,
            t.corpus,
        )
        for t in tenants
    ]


def _tenant_corpus(spec: TenantSpec, seed: int, size: int = 1 << 17) -> bytes:
    """One deterministic corpus blob per tenant; requests slice windows."""
    if spec.corpus == "cache":
        items = generate_cache_items(CACHE1_TYPES, 64, seed=seed)
        blob = b"".join(payload for __, payload in items)
    elif spec.corpus == "logs":
        blob = generate_logs(size, seed=seed)
    elif spec.corpus == "ads":
        blob = b"".join(
            generate_ads_request("A", seed=seed + i) for i in range(4)
        )
    else:
        blob = generate_records(size, seed=seed)
    while len(blob) < size:
        blob += blob
    return blob[:size]


def _tenant_cdf(weights: Sequence[float]) -> List[float]:
    """The cumulative tenant distribution ``Generator.choice(p=weights)``
    would rebuild, and the checks it would repeat, on every draw."""
    p = np.asarray(weights, dtype=np.float64)
    total = math.fsum(p)
    if math.isnan(total):
        raise ValueError("tenant weights contain NaN")
    if (p < 0).any():
        raise ValueError("tenant weights are not non-negative")
    if abs(total - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError("tenant weights do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class WorkloadGenerator:
    """Deterministic open-loop request stream."""

    def __init__(
        self,
        tenants: Optional[Sequence[TenantSpec]] = None,
        rate_rps: float = 50.0,
        duration_seconds: float = 10.0,
        seed: int = 7,
        process: str = "poisson",
        diurnal_amplitude: float = 0.6,
        payload_pool: Optional[int] = None,
    ) -> None:
        if process not in ("poisson", "diurnal"):
            raise ValueError("process must be 'poisson' or 'diurnal'")
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if not 0 <= diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if payload_pool is not None and payload_pool < 1:
            raise ValueError("payload_pool must be at least 1 (or None)")
        self.tenants = (
            list(tenants) if tenants is not None else tenants_from_fleet()
        )
        names = [t.name for t in self.tenants]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"tenant {name!r} is listed more than once")
        self.rate_rps = rate_rps
        self.duration_seconds = duration_seconds
        self.seed = seed
        self.process = process
        self.diurnal_amplitude = diurnal_amplitude
        #: when set, each tenant draws payloads from a fixed pool of this
        #: many pre-sliced windows instead of slicing fresh per request.
        #: The cluster simulator uses this: payload *content* stays real
        #: and tenant-shaped, but the distinct-payload population is
        #: bounded, which lets the fleet codec cache amortize compression
        #: across O(10^5)-request runs.
        self.payload_pool = payload_pool
        self._corpora: Dict[str, bytes] = {}
        self._pools: Dict[str, List[bytes]] = {}

    def tenant_weights(self) -> Dict[str, float]:
        return {t.name: t.weight for t in self.tenants}

    def _build_pool(self, spec: TenantSpec) -> List[bytes]:
        """The tenant's fixed payload pool, a pure function of (tenants,
        seed, pool size) — a dedicated sampler keyed by the tenant's
        position keeps pools independent of arrival order."""
        index = [t.name for t in self.tenants].index(spec.name)
        corpus = self._corpora.get(spec.name)
        if corpus is None:
            corpus = self._corpora[spec.name] = _tenant_corpus(
                spec, seed=self.seed * 1009 + index
            )
        rng = SeededSampler(self.seed * 7919 + 31 * index + 1).rng
        pool: List[bytes] = []
        for __ in range(self.payload_pool):
            size = int(
                min(
                    max(
                        rng.lognormal(
                            mean=math.log(spec.median_bytes), sigma=spec.sigma
                        ),
                        64,
                    ),
                    1 << 16,
                )
            )
            start = int(rng.integers(0, max(1, len(corpus) - size)))
            pool.append(corpus[start : start + size])
        return pool

    def _rate_at(self, t: float) -> float:
        if self.process == "poisson":
            return self.rate_rps
        # one full day per run
        phase = 2.0 * math.pi * t / self.duration_seconds
        return self.rate_rps * (1.0 + self.diurnal_amplitude * math.sin(phase))

    def generate(self) -> Iterator[ServingRequest]:
        """The request stream, arrival-ordered.

        The tenant weights are checked here, before anything is drawn; the
        draws happen as the stream is consumed, in the same order a list
        built in one pass would have made them.
        """
        cdf = _tenant_cdf([t.weight for t in self.tenants])
        peak = (
            self.rate_rps * (1.0 + self.diurnal_amplitude)
            if self.process == "diurnal"
            else self.rate_rps
        )
        return self._draw(cdf, SeededSampler(self.seed).rng, peak)

    def _draw(
        self, cdf: List[float], rng: np.random.Generator, peak: float
    ) -> Iterator[ServingRequest]:
        tenants = self.tenants
        t = 0.0
        request_id = 0
        while True:
            t += float(rng.exponential(1.0 / peak))
            if t >= self.duration_seconds:
                break
            # thinning: accept with probability lambda(t) / peak
            if self.process == "diurnal" and (
                float(rng.random()) >= self._rate_at(t) / peak
            ):
                continue
            # one uniform double, right-bisected into the cdf: exactly what
            # Generator.choice(names, p=weights) consumes and returns
            spec = tenants[bisect_right(cdf, float(rng.random()))]
            name = spec.name
            if self.payload_pool:
                pool = self._pools.get(name)
                if pool is None:
                    pool = self._pools[name] = self._build_pool(spec)
                payload = pool[int(rng.integers(0, len(pool)))]
            else:
                size = int(
                    min(
                        max(
                            rng.lognormal(
                                mean=math.log(spec.median_bytes),
                                sigma=spec.sigma,
                            ),
                            64,
                        ),
                        1 << 16,
                    )
                )
                corpus = self._corpora.get(name)
                if corpus is None:
                    corpus = self._corpora[name] = _tenant_corpus(
                        spec, seed=self.seed * 1009 + len(self._corpora)
                    )
                start = int(rng.integers(0, max(1, len(corpus) - size)))
                payload = corpus[start : start + size]
            yield ServingRequest(
                request_id=request_id,
                tenant=name,
                payload=payload,
                arrival=t,
                deadline=t + spec.deadline_seconds,
            )
            request_id += 1

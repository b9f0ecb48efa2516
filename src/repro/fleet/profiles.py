"""The synthetic fleet registry.

Each :class:`ServiceProfile` describes one service's compute footprint and
compression behaviour. The registry is calibrated so the fleet aggregates
land on the paper's published numbers:

- ~4.6% of all fleet cycles in (de)compression; 3.9% Zstd, 0.4% LZ4,
  0.3% Zlib (Section III-B);
- per-category Zstd shares spanning 1.8%..21.2% with Data Warehouse at the
  top (Fig. 2);
- decompression dominating most categories (Fig. 3);
- levels 1-4 carrying more than half of level-attributed cycles, with Feed
  above 80% (Fig. 4);
- block sizes from sub-KB cache items to 256KB warehouse blocks (Fig. 5).

Analytically (before sampling noise) this registry yields: total 4.61%,
zstd 3.90%, lz4 0.42%, zlib 0.30%; DW 21.3%, KV 11.3%, Cache 3.9%,
Ads 3.3%, Web 1.8%, Feed 1.8%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

CATEGORIES = ["Ads", "Cache", "Data Warehouse", "Feed", "Key-Value Store", "Web"]


@dataclass(frozen=True)
class ServiceProfile:
    """Compression behaviour of one fleet service."""

    name: str
    category: str
    #: share of total fleet compute cycles consumed by this service
    fleet_compute_share: float
    #: fraction of this service's cycles spent in (de)compression
    compression_share: float
    #: algorithm -> fraction of the compression cycles (sums to 1)
    algorithm_mix: Dict[str, float]
    #: fraction of compression cycles that are *compression* (rest decode)
    compress_fraction: float
    #: zstd level -> fraction of zstd compression cycles (sums to 1)
    level_mix: Dict[int, float]
    #: (median block size bytes, lognormal sigma)
    block_size: Tuple[int, float]

    def __post_init__(self) -> None:
        if not 0 <= self.compression_share <= 1:
            raise ValueError("compression_share must be in [0, 1]")
        if self.compression_share > 0:
            mix_total = sum(self.algorithm_mix.values())
            if abs(mix_total - 1.0) > 1e-6:
                raise ValueError(f"{self.name}: algorithm mix sums to {mix_total}")
        if self.level_mix:
            level_total = sum(self.level_mix.values())
            if abs(level_total - 1.0) > 1e-6:
                raise ValueError(f"{self.name}: level mix sums to {level_total}")


def _p(name, category, fleet, comp_share, mix, comp_frac, levels, block):
    return ServiceProfile(
        name=name,
        category=category,
        fleet_compute_share=fleet,
        compression_share=comp_share,
        algorithm_mix=mix,
        compress_fraction=comp_frac,
        level_mix=levels,
        block_size=block,
    )


_Z = "zstd"
_L = "lz4"
_G = "zlib"

#: The default fleet: 25 compression-using services across six categories
#: plus a compression-free infrastructure bucket that dilutes the aggregates
#: to the published fleet-wide percentages.
DEFAULT_FLEET: List[ServiceProfile] = [
    # -- Web: big fleet share, modest compression, zlib for compatibility.
    _p("web_frontend", "Web", 0.19, 0.026,
       {_Z: 0.60, _G: 0.35, _L: 0.05}, 0.35,
       {1: 0.6, 3: 0.3, 6: 0.1}, (4096, 0.8)),
    _p("web_api", "Web", 0.08, 0.038,
       {_Z: 0.72, _G: 0.23, _L: 0.05}, 0.40,
       {1: 0.5, 3: 0.35, 6: 0.15}, (8192, 0.9)),
    _p("web_static", "Web", 0.05, 0.008,
       {_G: 0.8, _Z: 0.2}, 0.20,
       {1: 0.7, 3: 0.3}, (4096, 1.0)),
    _p("web_logging", "Web", 0.04, 0.055,
       {_Z: 0.55, _G: 0.35, _L: 0.10}, 0.75,
       {1: 0.45, 3: 0.35, 6: 0.20}, (65536, 0.6)),
    # -- Feed: latency-critical ranking; almost all cycles at low levels.
    _p("feed_ranker", "Feed", 0.10, 0.019,
       {_Z: 0.85, _L: 0.15}, 0.45,
       {1: 0.65, 2: 0.20, 3: 0.10, 6: 0.05}, (2048, 0.9)),
    _p("feed_aggregator", "Feed", 0.06, 0.026,
       {_Z: 0.90, _L: 0.10}, 0.40,
       {1: 0.55, 2: 0.25, 3: 0.12, 4: 0.08}, (4096, 0.8)),
    _p("feed_media_meta", "Feed", 0.03, 0.013,
       {_Z: 1.0}, 0.35,
       {1: 0.9, 2: 0.1}, (1024, 1.0)),
    # -- Ads: network compression of inference requests and event logs.
    _p("ads_inference", "Ads", 0.07, 0.045,
       {_Z: 0.90, _L: 0.10}, 0.50,
       {1: 0.45, 2: 0.20, 3: 0.20, 4: 0.15}, (32768, 1.0)),
    _p("ads_features", "Ads", 0.04, 0.035,
       {_Z: 0.95, _L: 0.05}, 0.40,
       {1: 0.5, 3: 0.3, 4: 0.2}, (16384, 1.0)),
    _p("ads_training_data", "Ads", 0.02, 0.060,
       {_Z: 1.0}, 0.55,
       {1: 0.4, 4: 0.3, 7: 0.3}, (131072, 0.7)),
    _p("ads_events", "Ads", 0.03, 0.030,
       {_Z: 0.55, _L: 0.45}, 0.45,
       {1: 0.6, 3: 0.4}, (8192, 1.0)),
    _p("ads_realtime_log", "Ads", 0.02, 0.045,
       {_L: 0.95, _Z: 0.05}, 0.70,
       {1: 1.0}, (16384, 0.8)),
    # -- Cache: small items, dictionaries, some lz4 on the hottest paths.
    _p("cache_objects", "Cache", 0.05, 0.065,
       {_Z: 0.75, _L: 0.25}, 0.35,
       {1: 0.3, 3: 0.45, 6: 0.15, 11: 0.10}, (400, 1.1)),
    _p("cache_graph", "Cache", 0.04, 0.035,
       {_Z: 0.80, _L: 0.20}, 0.30,
       {1: 0.35, 3: 0.45, 6: 0.20}, (250, 1.0)),
    _p("cache_lookaside", "Cache", 0.02, 0.075,
       {_Z: 0.60, _L: 0.40}, 0.30,
       {1: 0.5, 3: 0.5}, (800, 1.2)),
    _p("cache_session", "Cache", 0.02, 0.045,
       {_Z: 0.7, _L: 0.3}, 0.35,
       {1: 0.6, 3: 0.4}, (300, 1.0)),
    # -- Data Warehouse: the heaviest compression users, high levels common.
    _p("dw_ingestion", "Data Warehouse", 0.030, 0.285,
       {_Z: 1.0}, 0.80,
       {7: 0.70, 8: 0.15, 4: 0.15}, (262144, 0.3)),
    _p("dw_shuffle", "Data Warehouse", 0.018, 0.305,
       {_Z: 1.0}, 0.73,
       {1: 0.85, 2: 0.15}, (262144, 0.3)),
    _p("dw_spark", "Data Warehouse", 0.030, 0.135,
       {_Z: 1.0}, 0.25,
       {1: 0.70, 3: 0.20, 7: 0.10}, (262144, 0.3)),
    _p("dw_ml_jobs", "Data Warehouse", 0.016, 0.080,
       {_Z: 1.0}, 0.55,
       {1: 0.80, 2: 0.20}, (131072, 0.5)),
    _p("dw_backup", "Data Warehouse", 0.010, 0.300,
       {_Z: 0.92, _G: 0.08}, 0.85,
       {7: 0.35, 12: 0.35, 19: 0.30}, (262144, 0.2)),
    # -- Key-Value Store: block compression during compaction + reads.
    _p("kv_zippy", "Key-Value Store", 0.030, 0.125,
       {_Z: 0.90, _L: 0.10}, 0.55,
       {1: 0.65, 3: 0.25, 6: 0.10}, (16384, 0.6)),
    _p("kv_timeseries", "Key-Value Store", 0.015, 0.150,
       {_Z: 0.95, _L: 0.05}, 0.60,
       {1: 0.5, 3: 0.3, 6: 0.2}, (65536, 0.5)),
    _p("kv_secondary_index", "Key-Value Store", 0.010, 0.100,
       {_Z: 0.85, _L: 0.15}, 0.45,
       {1: 0.7, 3: 0.3}, (16384, 0.6)),
    _p("kv_config_store", "Key-Value Store", 0.005, 0.090,
       {_Z: 0.9, _G: 0.1}, 0.40,
       {1: 0.5, 3: 0.5}, (4096, 0.8)),
    # -- Everything else: compute with no compression at all, sized so the
    #    fleet-wide zstd share lands on 3.9%.
    _p("infra_other", "Infra", 0.2514, 0.0, {}, 0.0, {}, (4096, 1.0)),
]


def fleet_by_category() -> Dict[str, List[ServiceProfile]]:
    """Group the fleet's profiles by service category."""
    grouped: Dict[str, List[ServiceProfile]] = {}
    for profile in DEFAULT_FLEET:
        grouped.setdefault(profile.category, []).append(profile)
    return grouped

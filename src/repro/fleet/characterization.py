"""Aggregation of profiler samples into the fleet-level views of Figs 2-5."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fleet.callstack import CallStackSample, classify_stack


@dataclass
class FleetCharacterization:
    """Everything Section III reports, computed from call-stack samples."""

    total_weight: int = 0
    compression_weight: int = 0
    #: algorithm -> cycles share of the whole fleet (Section III-B)
    algorithm_shares: Dict[str, float] = field(default_factory=dict)
    #: category -> zstd cycles share within the category (Fig. 2)
    category_zstd_share: Dict[str, float] = field(default_factory=dict)
    #: category -> (compress fraction, decompress fraction) of zstd cycles (Fig. 3)
    category_split: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: zstd level -> share of level-attributed compression cycles (Fig. 4)
    level_usage: Dict[int, float] = field(default_factory=dict)
    #: category -> (level -> share); per-category view of Fig. 4 (the
    #: "over 80% for Feed" observation)
    category_level_usage: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: service -> drawn block sizes (Fig. 5)
    block_sizes: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def compression_share(self) -> float:
        """Fraction of all fleet cycles spent in (de)compression."""
        return self.compression_weight / self.total_weight if self.total_weight else 0.0

    def low_level_share(self, threshold: int = 4) -> float:
        """Share of level cycles at levels <= threshold (Fig. 4's headline)."""
        total = sum(self.level_usage.values())
        if not total:
            return 0.0
        low = sum(share for level, share in self.level_usage.items() if level <= threshold)
        return low / total


def characterize(samples: List[CallStackSample]) -> FleetCharacterization:
    """Filter stacks for compression APIs and aggregate, as Section III-A."""
    result = FleetCharacterization()
    algo_weights: Dict[str, int] = {}
    category_total: Dict[str, int] = {}
    category_zstd: Dict[str, int] = {}
    category_compress: Dict[str, int] = {}
    category_decompress: Dict[str, int] = {}
    level_weights: Dict[int, int] = {}
    category_level_weights: Dict[str, Dict[int, int]] = {}

    for sample in samples:
        result.total_weight += sample.weight
        category_total[sample.category] = (
            category_total.get(sample.category, 0) + sample.weight
        )
        classified = classify_stack(sample.frames)
        if classified is None:
            continue
        algorithm, direction = classified
        result.compression_weight += sample.weight
        algo_weights[algorithm] = algo_weights.get(algorithm, 0) + sample.weight
        if algorithm == "zstd":
            category_zstd[sample.category] = (
                category_zstd.get(sample.category, 0) + sample.weight
            )
            if direction == "compress":
                category_compress[sample.category] = (
                    category_compress.get(sample.category, 0) + sample.weight
                )
                if sample.level is not None:
                    level_weights[sample.level] = (
                        level_weights.get(sample.level, 0) + sample.weight
                    )
                    per_category = category_level_weights.setdefault(
                        sample.category, {}
                    )
                    per_category[sample.level] = (
                        per_category.get(sample.level, 0) + sample.weight
                    )
            else:
                category_decompress[sample.category] = (
                    category_decompress.get(sample.category, 0) + sample.weight
                )
        if sample.block_size is not None:
            result.block_sizes.setdefault(sample.service, []).append(
                sample.block_size
            )

    total = result.total_weight or 1
    result.algorithm_shares = {
        algo: weight / total for algo, weight in algo_weights.items()
    }
    for category, cat_total in category_total.items():
        zstd_weight = category_zstd.get(category, 0)
        result.category_zstd_share[category] = (
            zstd_weight / cat_total if cat_total else 0.0
        )
        compress = category_compress.get(category, 0)
        decompress = category_decompress.get(category, 0)
        denominator = compress + decompress
        if denominator:
            result.category_split[category] = (
                compress / denominator,
                decompress / denominator,
            )
    level_total = sum(level_weights.values()) or 1
    result.level_usage = {
        level: weight / level_total for level, weight in sorted(level_weights.items())
    }
    for category, weights in category_level_weights.items():
        category_total = sum(weights.values()) or 1
        result.category_level_usage[category] = {
            level: weight / category_total
            for level, weight in sorted(weights.items())
        }
    return result

"""Compression configuration tuples.

The paper defines a configuration x as "a tuple composed of a compression
algorithm, a compression level, and a block size, such as (Zstd, 3, 64KB)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.codecs.base import available_codecs, get_codec


@dataclass(frozen=True, order=True)
class CompressionConfig:
    """One candidate compression option: (algorithm, level, block_size).

    ``block_size`` of ``None`` means "compress each sample whole" (no
    chunking), which is how stream/request use cases like ADS1 operate;
    storage use cases like KVSTORE1 sweep explicit block sizes.
    """

    algorithm: str
    level: int
    block_size: Optional[int] = None

    def __post_init__(self) -> None:
        # Registered codecs get level validation here; accelerator
        # pseudo-algorithms (CompSim) are resolved later by the engine.
        if self.algorithm in available_codecs():
            codec = get_codec(self.algorithm)
            if not codec.min_level <= self.level <= codec.max_level:
                raise ValueError(
                    f"{self.algorithm} level {self.level} outside "
                    f"{codec.min_level}..{codec.max_level}"
                )
        if self.block_size is not None and self.block_size <= 0:
            raise ValueError("block_size must be positive")

    def label(self) -> str:
        """Human-readable form, e.g. ``zstd-3@64KB``."""
        if self.block_size is None:
            return f"{self.algorithm}-{self.level}"
        if self.block_size % 1024 == 0:
            return f"{self.algorithm}-{self.level}@{self.block_size // 1024}KB"
        return f"{self.algorithm}-{self.level}@{self.block_size}B"


def config_grid(
    algorithms: Iterable[str],
    levels: Optional[Sequence[int]] = None,
    block_sizes: Sequence[Optional[int]] = (None,),
) -> List[CompressionConfig]:
    """Cartesian candidate grid, skipping invalid algorithm/level pairs."""
    grid: List[CompressionConfig] = []
    for algorithm in algorithms:
        codec = get_codec(algorithm)
        algo_levels = levels if levels is not None else codec.levels()
        for level in algo_levels:
            if not codec.min_level <= level <= codec.max_level:
                continue
            for block_size in block_sizes:
                grid.append(CompressionConfig(algorithm, level, block_size))
    return grid

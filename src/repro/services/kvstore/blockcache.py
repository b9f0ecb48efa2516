"""LRU cache of decompressed SST blocks.

RocksDB's block cache holds uncompressed blocks so repeated reads of hot
blocks skip decompression entirely -- the compute/memory trade the paper's
KVSTORE1 team balances against block size.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.instrument import record_block_cache
from repro.obs.state import OBS_STATE

CacheKey = Tuple[int, int]  # (table serial, block index)


@dataclass
class BlockCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BlockCache:
    """Byte-capacity-bounded LRU over decompressed blocks."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[CacheKey, bytes]" = OrderedDict()
        self._used = 0
        self.stats = BlockCacheStats()

    def get(self, key: CacheKey) -> Optional[bytes]:
        block = self._entries.get(key)
        if block is None:
            self.stats.misses += 1
            if OBS_STATE.enabled:
                record_block_cache(hit=False)
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if OBS_STATE.enabled:
            record_block_cache(hit=True)
        return block

    def put(self, key: CacheKey, block: bytes) -> None:
        if len(block) > self.capacity_bytes:
            return  # larger than the whole cache; never resident
        if key in self._entries:
            self._used -= len(self._entries.pop(key))
        self._entries[key] = block
        self._used += len(block)
        while self._used > self.capacity_bytes:
            __, evicted = self._entries.popitem(last=False)
            self._used -= len(evicted)
            self.stats.evictions += 1

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

"""KVSTORE1: an LSM-tree key-value store in the RocksDB mold.

Writes land in a memtable; full memtables flush to Sorted Sequence Table
(SST) files split into fixed-size blocks, each compressed independently;
levelled compaction merges SSTs and re-compresses. A point read decompresses
exactly one block, which is why the paper's KVSTORE1 tunes block size
against a read-latency SLO (Section IV-E, Fig. 13).
"""

from repro.services.kvstore.memtable import MemTable
from repro.services.kvstore.bloom import BloomFilter
from repro.services.kvstore.blockcache import BlockCache, BlockCacheStats
from repro.services.kvstore.sst import KVStoreStats, SSTable
from repro.services.kvstore.storage import SimStorage, StorageStats
from repro.services.kvstore.wal import WalReplayResult, WriteAheadLog
from repro.services.kvstore.manifest import Manifest, ManifestState
from repro.services.kvstore.db import CRASH_SITES, KVStore, RecoveryReport

__all__ = [
    "MemTable",
    "BloomFilter",
    "BlockCache",
    "BlockCacheStats",
    "SSTable",
    "SimStorage",
    "StorageStats",
    "WalReplayResult",
    "WriteAheadLog",
    "Manifest",
    "ManifestState",
    "KVStore",
    "KVStoreStats",
    "RecoveryReport",
    "CRASH_SITES",
]

"""KVSTORE1: an LSM-tree key-value store in the RocksDB mold.

Writes land in a memtable; full memtables flush to Sorted Sequence Table
(SST) files split into fixed-size blocks, each compressed independently;
levelled compaction merges SSTs and re-compresses. A point read decompresses
exactly one block, which is why the paper's KVSTORE1 tunes block size
against a read-latency SLO (Section IV-E, Fig. 13).
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.services.kvstore.blockcache": ("BlockCache", "BlockCacheStats"),
        "repro.services.kvstore.bloom": ("BloomFilter",),
        "repro.services.kvstore.db": ("CRASH_SITES", "KVStore", "RecoveryReport"),
        "repro.services.kvstore.manifest": ("Manifest", "ManifestState"),
        "repro.services.kvstore.memtable": ("MemTable",),
        "repro.services.kvstore.sst": ("KVStoreStats", "SSTable"),
        "repro.services.kvstore.storage": ("SimStorage", "StorageStats"),
        "repro.services.kvstore.wal": ("WalReplayResult", "WriteAheadLog"),
    },
)

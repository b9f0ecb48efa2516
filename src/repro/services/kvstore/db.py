"""The LSM database: memtable, levels, flush, compaction, durability.

Every store runs on a :class:`~repro.services.kvstore.storage.SimStorage`
(a fresh one when ``storage`` is not given). Every write is group-appended
to the checksummed WAL and acked only after sync; flush and compaction
install SST files atomically, build the next level list, and commit it
through the versioned manifest's pointer swap — the manifest is written
from the level list, which is the only record of level shape.
``KVStore.open(storage)`` (or the constructor) recovers: load the
manifest, load its SSTs, garbage-collect crash orphans, replay the WAL
tail into the memtable.

The recovery invariant the crash harness sweeps
(:mod:`repro.services.kvstore.crashsim`): every acked write survives, no
unacked write resurrects, and no partially-compacted level is ever
visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.codecs import Compressor, get_codec
from repro.codecs.base import StageCounters
from repro.obs.instrument import record_kvstore_recovery
from repro.obs.metrics import Histogram
from repro.obs.spans import span
from repro.obs.state import OBS_STATE
from repro.services.kvstore.blockcache import BlockCache
from repro.services.kvstore.manifest import Manifest, ManifestState
from repro.services.kvstore.memtable import MemTable
from repro.services.kvstore.sst import SSTable
from repro.services.kvstore.storage import SimStorage
from repro.services.kvstore.wal import WriteAheadLog

#: crash sites crossed by the write path (see also
#: :data:`repro.services.kvstore.wal.APPEND_SITE` and the manifest's
#: SWAP/CLEANUP sites)
FLUSH_SST_SITE = "kvstore.flush.sst"
FLUSH_CLEANUP_SITE = "kvstore.flush.cleanup"
COMPACT_SST_SITE = "kvstore.compact.sst"
COMPACT_CLEANUP_SITE = "kvstore.compact.cleanup"

#: modeled fixed cost of one recovery open (process restart, file listing)
_RECOVERY_BASE_SECONDS = 50e-6
#: modeled sequential re-read bandwidth for SST/WAL bytes (1.25 GB/s, the
#: same refetch bandwidth the chaos scorecard charges for re-reads)
_RECOVERY_READ_BYTES_PER_SECOND = 1.25e9


@dataclass
class RecoveryReport:
    """What one crash-recovery open found and rebuilt."""

    sst_files: int = 0
    sst_bytes: int = 0
    wal_records_scanned: int = 0
    wal_records_replayed: int = 0
    wal_entries_replayed: int = 0
    wal_bytes_replayed: int = 0
    torn_tail_truncations: int = 0
    orphans_removed: int = 0
    #: tables whose bloom filter came out of the file's checksummed footer
    filters_loaded: int = 0
    #: tables whose footer failed its checksum: they serve without a filter
    #: until a compaction rewrites them
    filters_dropped: int = 0
    #: modeled wall seconds: base + sequential re-read (open decodes no block)
    modeled_seconds: float = 0.0


@dataclass
class KVStoreStats:
    """Aggregate compression and read-path accounting for one store."""

    flushes: int = 0
    compactions: int = 0
    reads: int = 0
    blocks_decompressed: int = 0
    #: log-bucketed per-read decode latency — bounded memory regardless of
    #: read volume (zero-latency reads land in the zeros bucket so the
    #: mean still averages over *all* reads)
    read_decode_seconds: Histogram = field(
        default_factory=lambda: Histogram(
            "kvstore_read_decode_seconds", help="per-read block decode latency"
        )
    )
    last_read_decode_seconds: float = 0.0
    compress_counters: StageCounters = field(default_factory=StageCounters)
    decompress_counters: StageCounters = field(default_factory=StageCounters)
    raw_bytes_written: int = 0
    stored_bytes_written: int = 0
    wal_appends: int = 0
    wal_bytes_appended: int = 0

    @property
    def storage_ratio(self) -> float:
        """Overall compression ratio of everything flushed/compacted."""
        if not self.stored_bytes_written:
            return 1.0
        return self.raw_bytes_written / self.stored_bytes_written

    def observe_read(self, seconds: float) -> None:
        self.read_decode_seconds.observe(seconds)
        self.last_read_decode_seconds = seconds

    @property
    def mean_read_decode_seconds(self) -> float:
        return self.read_decode_seconds.mean()


class KVStore:
    """A levelled-compaction LSM store with compressed SST blocks.

    ``compression_level`` and ``block_size`` are the knobs KVSTORE1 tunes
    (Section IV-E): bigger blocks compress better but cost more per point
    read, since the whole block must be decompressed.

    Level sizing: level 0 compacts past ``level0_table_limit`` tables;
    every deeper level holds one merged run and compacts downward once
    its raw size exceeds ``memtable_bytes * level0_table_limit *
    level_size_multiplier**(level-1)`` — the standard geometric budget,
    so data settles at the first level big enough to hold it.
    """

    def __init__(
        self,
        codec: Optional[Compressor] = None,
        compression_level: int = 1,
        block_size: int = 16384,
        memtable_bytes: int = 1 << 18,
        level0_table_limit: int = 4,
        level_size_multiplier: int = 4,
        block_cache_bytes: Optional[int] = None,
        bloom_bits_per_key: int = 10,
        storage: Optional[SimStorage] = None,
        wal_segment_bytes: int = 1 << 16,
    ) -> None:
        self.codec = codec if codec is not None else get_codec("zstd")
        self.compression_level = compression_level
        self.block_size = block_size
        self.memtable_bytes = memtable_bytes
        self.level0_table_limit = level0_table_limit
        self.level_size_multiplier = level_size_multiplier
        self.block_cache = (
            BlockCache(block_cache_bytes) if block_cache_bytes else None
        )
        self.bloom_bits_per_key = bloom_bits_per_key
        self.memtable = MemTable(memtable_bytes)
        self.stats = KVStoreStats()
        self.storage = SimStorage() if storage is None else storage
        self.wal = WriteAheadLog(self.storage, segment_bytes=wal_segment_bytes)
        self.manifest = Manifest(self.storage)
        if OBS_STATE.enabled:
            with span("kvstore.recover"):
                self._recover()
        else:
            self._recover()

    @classmethod
    def open(cls, storage: SimStorage, **kwargs) -> "KVStore":
        """Open (or recover) a store on ``storage``."""
        return cls(storage=storage, **kwargs)

    # -- write path -----------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self.write_batch(((key, value),))

    def delete(self, key: bytes) -> None:
        self.write_batch(((key, None),))

    def write_batch(
        self, items: Iterable[Tuple[bytes, Optional[bytes]]]
    ) -> None:
        """Apply a group of puts and deletes (value ``None``) with one WAL
        record + sync; ``put`` and ``delete`` are batches of one."""
        items = [
            (bytes(key), None if value is None else bytes(value))
            for key, value in items
        ]
        if not items:
            return
        seq = self._next_seq
        appended = self.wal.append(seq, items)
        # the sync inside append() is the ack; only now is the batch ours
        self._next_seq = seq + 1
        self.stats.wal_appends += 1
        self.stats.wal_bytes_appended += appended
        for key, value in items:
            self.memtable.put(key, value)
        if self.memtable.is_full():
            self.flush()

    def flush(self) -> None:
        """Write the memtable out as a level-0 SST file."""
        if not len(self.memtable):
            return
        if OBS_STATE.enabled:
            with span("kvstore.flush", entries=len(self.memtable)):
                self._flush()
        else:
            self._flush()

    def _flush(self) -> None:
        table = self._build(self.memtable.sorted_entries())
        self._write_table(table, FLUSH_SST_SITE)
        self._commit(
            [[table, *self.levels[0]], *self.levels[1:]],
            wal_cutoff=self._next_seq - 1,
        )
        self.storage.crash_point(FLUSH_CLEANUP_SITE)
        # every appended batch is now covered by wal_cutoff
        self.wal.prune()
        self.memtable = MemTable(self.memtable_bytes)
        self.stats.flushes += 1
        self._maybe_compact()

    def _build(self, entries: List[Tuple[bytes, Optional[bytes]]]) -> SSTable:
        table = SSTable.build(
            entries,
            codec=self.codec,
            level=self.compression_level,
            block_size=self.block_size,
            bloom_bits_per_key=self.bloom_bits_per_key,
            block_cache=self.block_cache,
        )
        self.stats.compress_counters.merge(table.stats.compress_counters)
        self.stats.raw_bytes_written += table.stats.raw_bytes
        self.stats.stored_bytes_written += table.stats.stored_bytes
        return table

    def _write_table(self, table: SSTable, site: str) -> None:
        """Install ``table`` as the next SST file, which it reads from
        then on, and cross ``site``."""
        table.file_name = f"sst-{self._next_file_id:06d}.sst"
        self._next_file_id += 1
        self.storage.write_file(table.file_name, table.to_bytes())
        table.image = self.storage.view(table.file_name)
        self.storage.crash_point(site)

    def _commit(self, levels: List[List[SSTable]], wal_cutoff: int) -> None:
        """The one commit step: write the manifest from ``levels``, then
        install them as :attr:`levels`."""
        self._state = ManifestState(
            version=self._state.version + 1,
            wal_cutoff=wal_cutoff,
            next_file_id=self._next_file_id,
            levels=[[table.file_name for table in level] for level in levels],
        )
        self.manifest.commit(self._state)
        self.levels = levels

    # -- compaction -------------------------------------------------------------

    def level_budget_bytes(self, level: int) -> int:
        """Raw-byte budget for ``level`` >= 1 (geometric in the multiplier)."""
        return (
            self.memtable_bytes
            * self.level0_table_limit
            * self.level_size_multiplier ** (level - 1)
        )

    @staticmethod
    def _table_raw_bytes(table: SSTable) -> int:
        # built or read from the footer; a dropped footer leaves the floor
        return table.stats.raw_bytes or table.stats.stored_bytes

    def _level_over_budget(self, level: int) -> bool:
        tables = self.levels[level]
        if not tables:
            return False
        if level == 0:
            return len(tables) > self.level0_table_limit
        raw = sum(self._table_raw_bytes(table) for table in tables)
        return raw > self.level_budget_bytes(level)

    def _maybe_compact(self) -> None:
        level = 0
        while level < len(self.levels):
            if self._level_over_budget(level):
                if OBS_STATE.enabled:
                    with span("kvstore.compact", level=level):
                        self._compact_level(level)
                else:
                    self._compact_level(level)
            level += 1

    def _compact_level(self, level: int) -> None:
        """Merge every SST in ``level`` (plus the next level) downward."""
        levels = list(self.levels)
        if level + 1 == len(levels):
            levels.append([])
        sources = levels[level] + levels[level + 1]
        merged = self._merge(sources, drop_tombstones=level + 2 >= len(levels))
        for table in sources:
            self.stats.decompress_counters.merge(table.stats.decompress_counters)
        levels[level], levels[level + 1] = [], []
        if merged:
            table = self._build(merged)
            self._write_table(table, COMPACT_SST_SITE)
            levels[level + 1] = [table]
        self._commit(levels, wal_cutoff=self._state.wal_cutoff)
        self.storage.crash_point(COMPACT_CLEANUP_SITE)
        for table in sources:
            self.storage.delete(table.file_name)
        self.stats.compactions += 1

    @staticmethod
    def _merge(
        tables: List[SSTable], drop_tombstones: bool
    ) -> List[Tuple[bytes, Optional[bytes]]]:
        """Newest-wins merge of sorted runs, removing overlapping items."""
        winners: Dict[bytes, Optional[bytes]] = {}
        # tables are ordered newest first; first writer wins.
        for table in tables:
            for key, value in table.scan():
                if key not in winners:
                    winners[key] = value
        entries = sorted(winners.items())
        if drop_tombstones:
            entries = [(k, v) for k, v in entries if v is not None]
        return entries

    # -- recovery ---------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild from storage: manifest -> SSTs -> GC orphans -> WAL tail."""
        report = RecoveryReport()
        state = self.manifest.load()
        #: the last committed manifest; :meth:`_commit` writes the next
        self._state = state
        self._next_file_id = state.next_file_id
        #: levels[0] is newest-first; deeper levels hold one merged SST each
        self.levels: List[List[SSTable]] = [[] for __ in state.levels]
        for level, names in enumerate(state.levels):
            for name in names:
                payload = self.storage.view(name)
                table = SSTable.from_bytes(payload, block_cache=self.block_cache)
                table.file_name = name
                table.stats.stored_bytes = len(payload)
                self.levels[level].append(table)
                report.sst_files += 1
                report.sst_bytes += len(payload)
                report.filters_loaded += table.has_filter
                report.filters_dropped += table.filter_dropped
        report.orphans_removed = len(self.manifest.collect_garbage(state))
        replay = self.wal.replay()
        report.wal_records_scanned = replay.records
        report.torn_tail_truncations = replay.torn_tails
        for seq, entries in replay.batches:
            if seq <= state.wal_cutoff:
                continue
            for key, value in entries:
                self.memtable.put(key, value)
            report.wal_records_replayed += 1
            report.wal_entries_replayed += len(entries)
        report.wal_bytes_replayed = replay.bytes_replayed
        self._next_seq = max(state.wal_cutoff, replay.max_seq) + 1
        report.modeled_seconds = (
            _RECOVERY_BASE_SECONDS
            + (report.sst_bytes + report.wal_bytes_replayed)
            / _RECOVERY_READ_BYTES_PER_SECOND
        )
        self.last_recovery = report
        if OBS_STATE.enabled:
            record_kvstore_recovery(report.modeled_seconds, report.filters_dropped)
        if self.memtable.is_full():
            self.flush()

    # -- read path ---------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Point read; records per-read block decode latency."""
        key = bytes(key)
        self.stats.reads += 1
        found, value = self.memtable.get(key)
        if found:
            self.stats.observe_read(0.0)
            return value
        for level_tables in self.levels:
            for table in level_tables:
                before = table.stats.blocks_read
                found, value, decode_seconds = table.get(key)
                if table.stats.blocks_read > before:
                    self.stats.blocks_decompressed += (
                        table.stats.blocks_read - before
                    )
                if found:
                    self.stats.observe_read(decode_seconds)
                    return value
        self.stats.observe_read(0.0)
        return None

    def scan_range(self, start: bytes, end: bytes):
        """Yield (key, value) with start <= key < end, newest value wins.

        Merges the memtable and every SST; tombstoned keys are omitted.
        """
        start, end = bytes(start), bytes(end)
        winners: Dict[bytes, Optional[bytes]] = {}
        for key, value in self.memtable.sorted_entries():
            if start <= key < end:
                winners[key] = value
        for level_tables in self.levels:
            for table in level_tables:
                if not table.block_count:
                    continue
                for key, value in table.scan_range(start, end):
                    if key not in winners:
                        winners[key] = value
        for key in sorted(winners):
            value = winners[key]
            if value is not None:
                yield key, value

    def total_decompress_counters(self) -> StageCounters:
        """All decompression work so far: retired tables plus live ones."""
        total = self.stats.decompress_counters.copy()
        for level_tables in self.levels:
            for table in level_tables:
                total.merge(table.stats.decompress_counters)
        return total

    @property
    def sst_count(self) -> int:
        return sum(len(tables) for tables in self.levels)

    @property
    def bloom_skips(self) -> int:
        """Point reads answered 'absent' by bloom filters, fleet-wide."""
        return sum(
            table.stats.bloom_skips
            for level_tables in self.levels
            for table in level_tables
        )

    @property
    def block_cache_hits(self) -> int:
        return sum(
            table.stats.cache_hits
            for level_tables in self.levels
            for table in level_tables
        )

    @property
    def quarantined_blocks(self) -> int:
        """Blocks removed from service after failing verified-decompress.

        The read path treats a quarantined block as "key absent in this
        table" and falls through to older levels, so LSM redundancy is the
        recovery mechanism for storage corruption.
        """
        return sum(
            table.quarantined_count
            for level_tables in self.levels
            for table in level_tables
        )

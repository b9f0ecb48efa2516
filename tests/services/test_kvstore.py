"""LSM key-value store tests: correctness, compaction, block trade-offs."""

import pytest

from repro.codecs import get_codec
from repro.corpus import generate_kv_records
from repro.services import KVStore
from repro.services.kvstore import MemTable, SSTable


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put(b"k", b"v")
        assert table.get(b"k") == (True, b"v")

    def test_missing_key(self):
        assert MemTable().get(b"nope") == (False, None)

    def test_tombstone_is_found_as_none(self):
        table = MemTable()
        table.put(b"k", b"v")
        table.put(b"k", None)
        assert table.get(b"k") == (True, None)

    def test_overwrite_updates_size(self):
        table = MemTable()
        table.put(b"k", b"v" * 100)
        size_before = table.size_bytes
        table.put(b"k", b"v")
        assert table.size_bytes < size_before

    def test_is_full(self):
        table = MemTable(capacity_bytes=64)
        table.put(b"key", b"x" * 100)
        assert table.is_full()

    def test_sorted_entries(self):
        table = MemTable()
        for key in (b"c", b"a", b"b"):
            table.put(key, key)
        assert [k for k, __ in table.sorted_entries()] == [b"a", b"b", b"c"]


class TestSSTable:
    @pytest.fixture(scope="class")
    def entries(self):
        return [(k, v) for k, v in generate_kv_records(400, seed=1)]

    def test_build_and_point_reads(self, entries):
        table = SSTable.build(entries, level=1, block_size=2048)
        for key, value in entries[::37]:
            found, got, decode_seconds = table.get(key)
            assert found and got == value
            assert decode_seconds > 0

    def test_missing_key_not_found(self, entries):
        table = SSTable.build(entries, level=1, block_size=2048)
        found, value, __ = table.get(b"zzzz/not/there")
        assert not found and value is None

    def test_key_before_first_block(self, entries):
        table = SSTable.build(entries, level=1, block_size=2048)
        found, __, decode_seconds = table.get(b"aaaa")
        assert not found
        assert decode_seconds == 0.0  # no block touched

    def test_unsorted_entries_rejected(self):
        with pytest.raises(ValueError):
            SSTable.build([(b"b", b"1"), (b"a", b"2")])

    def test_scan_returns_everything_in_order(self, entries):
        table = SSTable.build(entries, level=1, block_size=1024)
        scanned = list(table.scan())
        assert scanned == entries

    def test_blocks_respect_target_size(self, entries):
        small = SSTable.build(entries, level=1, block_size=1024)
        large = SSTable.build(entries, level=1, block_size=16384)
        assert small.block_count > large.block_count

    def test_larger_blocks_compress_better(self, entries):
        """Fig. 13's ratio trend: bigger blocks -> higher ratio."""
        small = SSTable.build(entries, level=1, block_size=1024)
        large = SSTable.build(entries, level=1, block_size=16384)
        assert large.stored_bytes < small.stored_bytes

    def test_larger_blocks_cost_more_per_read(self, entries):
        """Fig. 13's latency trend: bigger blocks -> longer decode per read."""
        small = SSTable.build(entries, level=1, block_size=1024)
        large = SSTable.build(entries, level=1, block_size=32768)
        key = entries[200][0]
        __, __, small_decode = small.get(key)
        __, __, large_decode = large.get(key)
        assert large_decode > small_decode


class TestKVStore:
    def test_put_get_through_memtable(self):
        store = KVStore()
        store.put(b"alpha", b"1")
        assert store.get(b"alpha") == b"1"

    def test_get_after_flush(self):
        store = KVStore(memtable_bytes=1 << 14)
        records = generate_kv_records(300, seed=2)
        for key, value in records:
            store.put(key, value)
        store.flush()
        assert store.sst_count >= 1
        for key, value in records[::29]:
            assert store.get(key) == value

    def test_delete_shadows_older_value(self):
        store = KVStore(memtable_bytes=1 << 12)
        store.put(b"k", b"v")
        store.flush()
        store.delete(b"k")
        store.flush()
        assert store.get(b"k") is None

    def test_newest_value_wins_across_ssts(self):
        store = KVStore(memtable_bytes=1 << 12)
        store.put(b"key", b"old")
        store.flush()
        store.put(b"key", b"new")
        store.flush()
        assert store.get(b"key") == b"new"

    def test_compaction_bounds_sst_count(self):
        store = KVStore(memtable_bytes=1 << 11, level0_table_limit=2)
        for key, value in generate_kv_records(1500, seed=3):
            store.put(key, value)
        store.flush()
        assert store.stats.compactions > 0
        assert store.sst_count <= 6

    def test_compaction_preserves_data(self):
        store = KVStore(memtable_bytes=1 << 11, level0_table_limit=2)
        records = generate_kv_records(800, seed=4)
        for key, value in records:
            store.put(key, value)
        store.flush()
        latest = {}
        for key, value in records:
            latest[key] = value
        for key, value in list(latest.items())[::23]:
            assert store.get(key) == value

    def test_storage_ratio_above_one(self):
        store = KVStore(memtable_bytes=1 << 13)
        for key, value in generate_kv_records(400, seed=5):
            store.put(key, value)
        store.flush()
        assert store.stats.storage_ratio > 1.5

    def test_read_latency_recorded(self):
        store = KVStore(memtable_bytes=1 << 12)
        records = generate_kv_records(200, seed=6)
        for key, value in records:
            store.put(key, value)
        store.flush()
        store.get(records[50][0])
        assert store.stats.reads == 1
        assert store.stats.mean_read_decode_seconds > 0

    def test_custom_codec(self):
        store = KVStore(codec=get_codec("lz4"), compression_level=1)
        for key, value in generate_kv_records(150, seed=7):
            store.put(key, value)
        store.flush()
        records = generate_kv_records(150, seed=7)
        assert store.get(records[10][0]) == records[10][1]

    def test_decompress_counter_aggregation(self):
        store = KVStore(memtable_bytes=1 << 12)
        records = generate_kv_records(300, seed=8)
        for key, value in records:
            store.put(key, value)
        store.flush()
        for key, __ in records[::17]:
            store.get(key)
        assert store.stats.decompress_counters.bytes_out > 0


class TestLevelSizing:
    """The geometric level budget: ``level_size_multiplier`` must govern
    compaction cadence (it used to be parsed and ignored)."""

    def _run(self, multiplier):
        store = KVStore(
            memtable_bytes=1 << 11,
            level0_table_limit=2,
            level_size_multiplier=multiplier,
        )
        for key, value in generate_kv_records(1500, seed=3):
            store.put(key, value)
        store.flush()
        return store

    def test_budget_is_geometric(self):
        store = KVStore(
            memtable_bytes=1 << 11,
            level0_table_limit=2,
            level_size_multiplier=4,
        )
        assert store.level_budget_bytes(1) == (1 << 11) * 2
        assert store.level_budget_bytes(2) == (1 << 11) * 2 * 4
        assert store.level_budget_bytes(3) == (1 << 11) * 2 * 16

    def test_multiplier_changes_compaction_cadence(self):
        # a tight multiplier overflows deep levels quickly and compacts
        # often; a loose one lets levels grow and compacts rarely
        tight = self._run(multiplier=2)
        loose = self._run(multiplier=16)
        assert tight.stats.compactions > loose.stats.compactions
        # both still bound the table count
        assert tight.sst_count <= 6
        assert loose.sst_count <= 6

    def test_deep_level_overflow_cascades(self):
        store = self._run(multiplier=2)
        # with multiplier 2 the data outgrows levels 1..k in turn, so
        # more than one level beyond L0 must have been populated
        assert len(store.levels) > 2


class TestReadDecodeHistogram:
    """Satellite: ``read_decode_seconds`` is a bounded histogram whose
    mean preserves the old all-reads list-mean semantics."""

    def test_mean_counts_zero_latency_reads(self):
        store = KVStore(memtable_bytes=1 << 12)
        records = generate_kv_records(200, seed=6)
        for key, value in records:
            store.put(key, value)
        store.flush()
        store.get(records[50][0])       # SST hit: decode > 0
        nonzero_mean = store.stats.mean_read_decode_seconds
        store.put(b"hot", b"in memtable")
        store.get(b"hot")               # memtable hit: decode == 0
        store.get(b"missing-key")       # miss: decode == 0
        # zeros must dilute the mean exactly like the old list did
        assert store.stats.read_decode_seconds.count() == 3
        diluted = store.stats.mean_read_decode_seconds
        assert diluted == pytest.approx(nonzero_mean / 3, rel=1e-6)

    def test_last_read_latency_tracked(self):
        store = KVStore(memtable_bytes=1 << 12)
        records = generate_kv_records(200, seed=6)
        for key, value in records:
            store.put(key, value)
        store.flush()
        store.get(records[50][0])
        assert store.stats.last_read_decode_seconds > 0
        store.get(b"missing-key")
        assert store.stats.last_read_decode_seconds == 0.0

    def test_memory_stays_bounded(self):
        # the old implementation appended one float per read; the
        # histogram stays at a fixed bucket count no matter the volume
        store = KVStore(memtable_bytes=1 << 14)
        store.put(b"k", b"v")
        for __ in range(5000):
            store.get(b"k")
        hist = store.stats.read_decode_seconds
        assert hist.count() == 5000
        (series,) = hist._series.values()
        assert len(series.buckets) < 100

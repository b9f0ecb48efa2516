"""The durable KVStore: reopen round-trips, WAL cutoff, orphan GC."""

from repro.services.kvstore import KVStore, SimStorage


def _open(storage, **kwargs):
    kwargs.setdefault("memtable_bytes", 1 << 11)
    kwargs.setdefault("level0_table_limit", 2)
    return KVStore.open(storage, **kwargs)


class TestReopenRoundTrip:
    def test_unflushed_writes_survive_reopen(self):
        storage = SimStorage(seed=1)
        store = _open(storage)
        store.put(b"alpha", b"one")
        store.put(b"beta", b"two")
        store.delete(b"alpha")
        reopened = _open(storage)
        assert reopened.get(b"alpha") is None
        assert reopened.get(b"beta") == b"two"
        report = reopened.last_recovery
        assert report is not None
        assert report.wal_records_replayed == 3
        assert report.sst_files == 0

    def test_flushed_writes_survive_via_ssts(self):
        storage = SimStorage(seed=1)
        store = _open(storage)
        for i in range(40):
            store.put(f"key:{i:04d}".encode(), b"payload " * 8)
        store.flush()
        reopened = _open(storage)
        for i in range(40):
            assert reopened.get(f"key:{i:04d}".encode()) == b"payload " * 8
        report = reopened.last_recovery
        assert report.sst_files >= 1
        # the flush pruned the WAL: nothing left to replay
        assert report.wal_records_replayed == 0
        assert report.modeled_seconds > 0

    def test_mixed_sst_and_wal_recovery(self):
        storage = SimStorage(seed=1)
        store = _open(storage)
        for i in range(40):
            store.put(f"old:{i:04d}".encode(), b"flushed " * 8)
        store.flush()
        store.put(b"tail:1", b"wal only")
        store.put(b"old:0000", b"overwritten after flush")
        reopened = _open(storage)
        assert reopened.get(b"tail:1") == b"wal only"
        # WAL replay must apply ON TOP of the SSTs (newest wins)
        assert reopened.get(b"old:0000") == b"overwritten after flush"
        assert reopened.last_recovery.wal_records_replayed == 2

    def test_write_batch_is_one_wal_record(self):
        storage = SimStorage(seed=1)
        store = _open(storage)
        store.write_batch([(b"a", b"1"), (b"b", b"2"), (b"c", None)])
        assert store.stats.wal_appends == 1
        reopened = _open(storage)
        assert reopened.last_recovery.wal_records_replayed == 1
        assert reopened.last_recovery.wal_entries_replayed == 3
        assert reopened.get(b"b") == b"2"
        assert reopened.get(b"c") is None

    def test_reopen_of_reopen_is_stable(self):
        storage = SimStorage(seed=1)
        store = _open(storage)
        for i in range(60):
            store.put(f"k:{i:04d}".encode(), b"body " * 10)
        expected = {
            key: value for key, value in store.scan_range(b"", b"\xff")
        }
        for __ in range(3):
            store = _open(storage)
            got = {key: value for key, value in store.scan_range(b"", b"\xff")}
            assert got == expected


class TestWalCutoff:
    def test_cutoff_excludes_flushed_batches(self):
        storage = SimStorage(seed=1)
        store = _open(storage)
        for i in range(40):
            store.put(f"key:{i:04d}".encode(), b"payload " * 8)
        store.flush()
        assert store._state.wal_cutoff > 0
        store.put(b"after", b"flush")
        reopened = _open(storage)
        # only the post-flush batch replays; pre-flush seqs are covered
        # by the manifest's cutoff even if segments lingered
        assert reopened.last_recovery.wal_records_replayed == 1
        assert reopened.get(b"after") == b"flush"

    def test_seq_resumes_past_recovered_writes(self):
        storage = SimStorage(seed=1)
        store = _open(storage)
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        reopened = _open(storage)
        reopened.put(b"c", b"3")
        final = _open(storage)
        assert final.get(b"a") == b"1"
        assert final.get(b"c") == b"3"
        assert final.last_recovery.wal_records_replayed == 3


class TestOrphanGc:
    def test_orphan_sst_removed_on_recovery(self):
        storage = SimStorage(seed=1)
        store = _open(storage)
        for i in range(40):
            store.put(f"key:{i:04d}".encode(), b"payload " * 8)
        store.flush()
        storage.write_file("sst-099999.sst", b"crashed flush leftover")
        reopened = _open(storage)
        assert reopened.last_recovery.orphans_removed >= 1
        assert not storage.exists("sst-099999.sst")
        assert reopened.get(b"key:0000") == b"payload " * 8


class TestWithoutStorageArgument:
    def test_store_runs_on_a_fresh_sim_storage(self):
        store = KVStore(memtable_bytes=1 << 11)
        assert isinstance(store.storage, SimStorage)
        report = store.last_recovery
        assert report.sst_files == 0
        assert report.wal_records_scanned == 0
        assert report.orphans_removed == 0
        store.put(b"a", b"1")
        store.write_batch([(b"b", b"2"), (b"c", b"3"), (b"a", None)])
        store.put(b"d", b"4")
        # one WAL record, and one sync, per write batch
        assert store.stats.wal_appends == 3
        assert store.storage.stats.syncs == 3
        reopened = KVStore.open(store.storage, memtable_bytes=1 << 11)
        assert reopened.last_recovery.wal_records_replayed == 3
        assert reopened.get(b"a") is None
        for key, value in [(b"b", b"2"), (b"c", b"3"), (b"d", b"4")]:
            assert reopened.get(key) == value

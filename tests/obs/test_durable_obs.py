"""Telemetry for the durable write path: WAL counters, recovery spans."""

from __future__ import annotations

from repro.obs.instrument import (
    FILTERS_DROPPED,
    KVSTORE_RECOVERY_SECONDS,
    TORN_TAILS,
    WAL_APPENDS,
    WAL_BYTES,
    WAL_REPLAYED,
)
from repro.obs.spans import SPAN_METRIC
from repro.services.kvstore import KVStore, SimStorage

_KWARGS = dict(memtable_bytes=1 << 11, level0_table_limit=2)


class TestWalCounters:
    def test_appends_counted_with_bytes(self, fresh_obs):
        store = KVStore.open(SimStorage(seed=1), **_KWARGS)
        store.put(b"a", b"1")
        store.write_batch([(b"b", b"2"), (b"c", b"3")])
        appends = fresh_obs.get(WAL_APPENDS)
        assert appends.value() == 2  # a batch is one group append
        wal_bytes = fresh_obs.get(WAL_BYTES)
        assert wal_bytes.value(direction="append") > 0
        replayed = fresh_obs.get(WAL_REPLAYED)
        assert replayed.value(direction="append") == 2

    def test_replay_and_recovery_recorded(self, fresh_obs):
        storage = SimStorage(seed=1)
        store = KVStore.open(storage, **_KWARGS)
        for i in range(10):
            store.put(f"k{i}".encode(), b"payload " * 4)
        KVStore.open(storage, **_KWARGS)
        replayed = fresh_obs.get(WAL_REPLAYED)
        assert replayed.value(direction="replay") == 10
        assert fresh_obs.get(WAL_BYTES).value(direction="replay") > 0
        # every durable open is a recovery: the fresh open plus the reopen
        recovery = fresh_obs.get(KVSTORE_RECOVERY_SECONDS)
        assert recovery.count() == 2
        assert recovery.max() > 0

    def test_torn_tail_counted(self, fresh_obs):
        storage = SimStorage(seed=2)
        store = KVStore.open(storage, **_KWARGS)
        store.put(b"acked", b"synced value")
        segment = storage.list("wal-")[-1]
        storage.append(segment, b"\xfe" * 30)  # in-flight, never synced
        storage.crash()
        KVStore.open(storage, **_KWARGS)
        torn = fresh_obs.get(TORN_TAILS)
        assert torn.value(segment=segment) == 1


    def test_dropped_filter_counted_and_absent_until_one_is(self, fresh_obs):
        storage = SimStorage(seed=3)
        store = KVStore.open(storage, **_KWARGS)
        for i in range(40):
            store.put(f"key:{i:04d}".encode(), b"filter payload " * 4)
        store.flush()
        KVStore.open(storage, **_KWARGS)
        assert fresh_obs.get(FILTERS_DROPPED) is None
        name = storage.list("sst-")[0]
        image = storage.read(name)
        storage.write_file(name, image[:-1] + bytes([image[-1] ^ 1]))
        reopened = KVStore.open(storage, **_KWARGS)
        assert reopened.last_recovery.filters_dropped == 1
        assert fresh_obs.get(FILTERS_DROPPED).value() == 1


class TestDurableSpans:
    def test_flush_and_recover_spans_emitted(self, fresh_obs):
        storage = SimStorage(seed=1)
        store = KVStore.open(storage, **_KWARGS)
        for i in range(200):
            store.put(f"key:{i:04d}".encode(), b"span payload " * 4)
        store.flush()
        KVStore.open(storage, **_KWARGS)
        paths = {dict(key)["path"] for key in fresh_obs.get(SPAN_METRIC).label_keys()}
        assert any(p.endswith("kvstore.flush") for p in paths)
        assert any("kvstore.recover" in p for p in paths)
        # the seeded fill compacts at least once under these knobs
        assert store.stats.compactions > 0
        assert any("kvstore.compact" in p for p in paths)

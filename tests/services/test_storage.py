"""SimStorage: the durable/pending split, torn writes, dropped syncs."""

import pytest

from repro.faults import (
    CrashInjector,
    CrashPlan,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
)
from repro.services.kvstore.storage import SYNC_SITE, SimStorage


class TestBasicOps:
    def test_append_then_read(self):
        storage = SimStorage()
        storage.append("f", b"hello ")
        storage.append("f", b"world")
        assert storage.read("f") == b"hello world"
        assert storage.size("f") == 11

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            SimStorage().read("ghost")

    def test_truncate(self):
        storage = SimStorage()
        storage.append("f", b"0123456789")
        storage.sync("f")
        storage.truncate("f", 4)
        assert storage.read("f") == b"0123"

    def test_list_by_prefix(self):
        storage = SimStorage()
        for name in ("wal-000001.log", "wal-000000.log", "sst-000000.sst"):
            storage.write_file(name, b"x")
        assert storage.list("wal-") == ["wal-000000.log", "wal-000001.log"]

    def test_delete(self):
        storage = SimStorage()
        storage.write_file("f", b"x")
        storage.delete("f")
        assert not storage.exists("f")

    def test_pointer_swap(self):
        storage = SimStorage()
        assert storage.get_pointer("CURRENT") is None
        storage.set_pointer("CURRENT", "manifest-000001.mf")
        assert storage.get_pointer("CURRENT") == "manifest-000001.mf"


class TestDurability:
    def test_unsynced_bytes_die_in_a_crash(self):
        storage = SimStorage(seed=3)
        storage.append("f", b"durable")
        storage.sync("f")
        storage.append("f", b"volatile")
        storage.crash()
        # the synced prefix survives; the pending tail is torn strictly short
        data = storage.read("f")
        assert data.startswith(b"durable")
        assert len(data) < len(b"durablevolatile")

    def test_tear_is_deterministic_per_seed(self):
        def survivors(seed):
            storage = SimStorage(seed=seed)
            storage.append("f", b"A" * 100)
            storage.crash()
            return storage.read("f")

        assert survivors(5) == survivors(5)
        # with 100 pending bytes, two seeds almost surely tear differently
        assert len(survivors(5)) != len(survivors(6)) or survivors(5) == survivors(6)

    def test_write_file_is_crash_proof(self):
        storage = SimStorage(seed=1)
        storage.write_file("sst-000000.sst", b"atomic install")
        storage.crash()
        assert storage.read("sst-000000.sst") == b"atomic install"

    def test_pointers_survive_crashes(self):
        storage = SimStorage(seed=1)
        storage.set_pointer("CURRENT", "manifest-000002.mf")
        storage.crash()
        assert storage.get_pointer("CURRENT") == "manifest-000002.mf"

    def test_in_flight_tail_never_survives_whole(self):
        # the invariant the WAL's no-resurrection guarantee rests on:
        # whatever the seed, at least one pending byte is always lost
        for seed in range(25):
            storage = SimStorage(seed=seed)
            storage.append("f", b"synced|")
            storage.sync("f")
            storage.append("f", b"record")
            storage.crash()
            assert storage.read("f") != b"synced|record"


class TestFaultHooks:
    def _dropping_injector(self):
        return FaultInjector(
            FaultPlan("drops", (FaultSpec(SYNC_SITE, "drop", 1.0),)), seed=1
        )

    def test_dropped_sync_leaves_tail_volatile(self):
        storage = SimStorage(seed=2, fault_injector=self._dropping_injector())
        storage.append("f", b"acked-but-doomed")
        assert storage.sync("f") is False
        assert storage.stats.dropped_syncs == 1
        storage.crash()
        assert len(storage.read("f")) < len(b"acked-but-doomed")

    def test_crash_point_raises_when_armed(self):
        injector = CrashInjector(CrashPlan.single("kvstore.flush.sst"))
        storage = SimStorage(crash_injector=injector)
        with pytest.raises(SimulatedCrash):
            storage.crash_point("kvstore.flush.sst")

    def test_crash_point_noop_without_injector(self):
        SimStorage().crash_point("kvstore.flush.sst")  # must not raise

    def test_decay_lands_in_place_under_every_view(self):
        storage = SimStorage()
        storage.write_file("t.sst", b"abcdef")
        view = storage.view("t.sst")
        storage.decay("t.sst", 2, b"XY")
        assert bytes(view) == storage.read("t.sst") == b"abXYef"
        with pytest.raises(TypeError):
            view[0] = 0  # a view is read-only
        with pytest.raises(ValueError):
            storage.decay("t.sst", 5, b"XY")  # would move the file's end
        with pytest.raises(FileNotFoundError):
            storage.view("missing")

"""The manifest: serialization round-trips, atomic swap, fallback, GC."""

import struct

import pytest

from repro.codecs.checksum import crc32
from repro.faults import CrashInjector, CrashPlan, SimulatedCrash
from repro.services.kvstore.db import KVStore
from repro.services.kvstore.manifest import (
    _KIND_ADD,
    _KIND_HEADER,
    CLEANUP_SITE,
    SWAP_SITE,
    Manifest,
    ManifestCorruptError,
    ManifestState,
)
from repro.services.kvstore.storage import SimStorage

#: a well-formed header record: version 1, cutoff 0, next id 0, 2 levels
_HEADER_RECORD = bytes([_KIND_HEADER, 1, 0, 0, 2])


def _state(**kwargs):
    return ManifestState(
        levels=[["sst-000002.sst", "sst-000001.sst"], ["sst-000000.sst"]],
        **kwargs,
    )


def _committed(manifest, version):
    state = _state(version=version)
    manifest.commit(state)
    return state


class TestSerialization:
    def test_round_trip(self):
        state = _state(version=7, wal_cutoff=42, next_file_id=3)
        decoded = ManifestState.from_bytes(state.to_bytes())
        assert decoded == state

    def test_empty_levels_round_trip(self):
        state = ManifestState(version=1, wal_cutoff=0, next_file_id=0)
        assert ManifestState.from_bytes(state.to_bytes()) == state

    def test_bit_flip_rejected(self):
        data = bytearray(_state().to_bytes())
        data[len(data) // 2] ^= 0x01
        with pytest.raises(ManifestCorruptError):
            ManifestState.from_bytes(bytes(data))

    def test_truncation_rejected(self):
        data = _state().to_bytes()
        with pytest.raises(ManifestCorruptError):
            ManifestState.from_bytes(data[:-3])

    @pytest.mark.parametrize(
        "records",
        [
            [b""],  # a zero-length record: eight zero bytes frame it
            [bytes([_KIND_HEADER]) + b"\x01\x00\x80"],  # cut-off varint
            [_HEADER_RECORD, bytes([_KIND_ADD]) + b"\x00\x80"],
            [_HEADER_RECORD, bytes([_KIND_ADD]) + b"\x00\x02\xff\xfe"],  # not utf-8
            [_HEADER_RECORD, bytes([_KIND_ADD]) + b"\x07\x01a"],  # level 7 of 2
            [_HEADER_RECORD, bytes([_KIND_ADD]) + b"\x02\x01a"],  # level 2 of 2
        ],
    )
    def test_checksum_valid_malformed_record_rejected(self, records):
        data = b"".join(
            struct.pack("<II", len(r), crc32(r)) + r for r in records
        )
        with pytest.raises(ManifestCorruptError):
            ManifestState.from_bytes(data)


class TestCommitLoad:
    def test_empty_storage_loads_empty_state(self):
        state = Manifest(SimStorage()).load()
        assert state.version == 0
        assert state.files() == []

    def test_commit_writes_its_version_and_swaps_pointer(self):
        storage = SimStorage()
        manifest = Manifest(storage)
        committed = _committed(manifest, 1)
        assert manifest.current_name() == "manifest-000001.mf"
        assert manifest.load() == committed

    def test_commit_deletes_superseded_files(self):
        storage = SimStorage()
        manifest = Manifest(storage)
        _committed(manifest, 1)
        _committed(manifest, 2)
        assert manifest.manifest_files() == ["manifest-000002.mf"]

    def test_crash_before_swap_keeps_old_state(self):
        injector = CrashInjector(CrashPlan.none())
        storage = SimStorage(seed=4, crash_injector=injector)
        manifest = Manifest(storage)
        old = _committed(manifest, 1)
        injector.arm_point(SWAP_SITE)
        with pytest.raises(SimulatedCrash):
            manifest.commit(_state(version=2))
        injector.disarm()
        storage.crash()
        # the new file may exist, but CURRENT still points at version 1
        assert manifest.load() == old

    def test_crash_before_cleanup_sees_new_state(self):
        injector = CrashInjector(CrashPlan.none())
        storage = SimStorage(seed=4, crash_injector=injector)
        manifest = Manifest(storage)
        old = _committed(manifest, 1)
        injector.arm_point(CLEANUP_SITE)
        with pytest.raises(SimulatedCrash):
            manifest.commit(_state(version=2))
        injector.disarm()
        storage.crash()
        loaded = manifest.load()
        assert loaded.version == 2
        # both files linger until GC; load still resolves via CURRENT
        assert len(manifest.manifest_files()) == 2

    def test_corrupt_current_falls_back_to_older(self):
        storage = SimStorage()
        manifest = Manifest(storage)
        old = _committed(manifest, 1)
        # hand-plant a corrupt "newer" manifest and point CURRENT at it,
        # without deleting the good version-1 file
        storage.write_file("manifest-000002.mf", b"garbage bytes")
        storage.set_pointer(Manifest.POINTER, "manifest-000002.mf")
        assert manifest.load() == old

    def test_zero_filled_current_falls_back_to_older(self):
        # a zero-filled file passes every frame checksum (crc32(b"") == 0)
        storage = SimStorage()
        manifest = Manifest(storage)
        old = _committed(manifest, 1)
        storage.write_file("manifest-000002.mf", bytes(64))
        storage.set_pointer(Manifest.POINTER, "manifest-000002.mf")
        assert manifest.load() == old

    def test_store_opens_through_a_malformed_newer_manifest(self):
        storage = SimStorage()
        store = KVStore(storage=storage, memtable_bytes=256)
        for i in range(40):
            store.put(f"key-{i:03d}".encode(), f"value {i:03d}".encode() * 4)
        store.flush()
        current = storage.get_pointer(Manifest.POINTER)
        newer = f"manifest-{int(current[9:15]) + 1:06d}.mf"
        storage.write_file(newer, bytes(64))
        storage.set_pointer(Manifest.POINTER, newer)
        reopened = KVStore(storage=storage, memtable_bytes=256)
        assert reopened.get(b"key-007") == b"value 007" * 4
        assert reopened.get(b"key-039") == b"value 039" * 4

    def test_all_corrupt_raises(self):
        storage = SimStorage()
        storage.write_file("manifest-000001.mf", b"junk")
        storage.set_pointer(Manifest.POINTER, "manifest-000001.mf")
        with pytest.raises(ManifestCorruptError):
            Manifest(storage).load()


class TestGarbageCollection:
    def test_orphans_removed_live_kept(self):
        storage = SimStorage()
        manifest = Manifest(storage)
        state = _state(version=1)
        for name in state.files():
            storage.write_file(name, b"live table")
        storage.write_file("sst-000099.sst", b"orphan from a crashed flush")
        manifest.commit(state)
        storage.write_file("manifest-000099.mf", b"orphan manifest")
        removed = manifest.collect_garbage(state)
        assert "sst-000099.sst" in removed
        assert "manifest-000099.mf" in removed
        for name in state.files():
            assert storage.exists(name)
        assert manifest.load() == state

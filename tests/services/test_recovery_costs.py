"""What ``KVStore.open`` costs, as counts.

A table's bloom filter and raw size are written at flush, in the SST's
checksummed footer, so opening a store reads them back: no block is decoded
and no key is hashed, whatever the store holds. Wall-clock cannot be held
in tier-1 (EXPERIMENTS.md, "Filter footer", has the clocks); these counts
repeat exactly:

- zero ``decompress`` calls on the store's codec;
- zero ``BloomFilter.add`` calls, and no filter constructed from a capacity;
- exactly one footer checksum per table;
- ``blocks_decompressed == 0`` and every table's ``blocks_read == 0``;
- the loaded filter bits and raw sizes are the built tables'.
"""

from __future__ import annotations

import pytest

from repro.corpus import generate_kv_records
from repro.services.kvstore import KVStore, SimStorage
from repro.services.kvstore import db as db_mod
from repro.services.kvstore import sst as sst_mod
from repro.services.kvstore.bloom import BloomFilter

_KWARGS = dict(block_size=2048, memtable_bytes=1 << 13, level0_table_limit=2)


def _tables(store):
    return [table for level in store.levels for table in level]


@pytest.fixture(scope="module")
def built():
    """A durable store with tables on at least two levels, and its records."""
    records = generate_kv_records(400, seed=24)
    store = KVStore.open(SimStorage(seed=24), **_KWARGS)
    for key, value in records:
        store.put(key, value)
    store.flush()
    assert store.stats.compactions > 0
    assert sum(1 for level in store.levels if level) >= 2
    return store, records


def test_open_decodes_no_block_and_hashes_no_key(built, monkeypatch):
    store, records = built
    calls = {"decompress": 0, "add": 0, "sized": 0, "crc32": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    codec_class = type(store.codec)
    monkeypatch.setattr(
        codec_class, "decompress", counted("decompress", codec_class.decompress)
    )
    monkeypatch.setattr(BloomFilter, "add", counted("add", BloomFilter.add))
    monkeypatch.setattr(BloomFilter, "__init__", counted("sized", BloomFilter.__init__))
    monkeypatch.setattr(sst_mod, "crc32", counted("crc32", sst_mod.crc32))

    reopened = KVStore.open(store.storage, **_KWARGS)

    report = reopened.last_recovery
    assert report.sst_files == store.sst_count >= 2
    assert calls == {"decompress": 0, "add": 0, "sized": 0, "crc32": report.sst_files}
    assert (report.filters_loaded, report.filters_dropped) == (report.sst_files, 0)
    assert reopened.stats.blocks_decompressed == 0
    assert all(table.stats.blocks_read == 0 for table in _tables(reopened))

    # the first read is the first decode
    key, value = records[0]
    assert reopened.get(key) == value
    assert calls["decompress"] == reopened.stats.blocks_decompressed == 1


def test_loaded_filters_and_raw_sizes_are_the_built_tables(built):
    store, records = built
    reopened = KVStore.open(store.storage, **_KWARGS)
    assert len(_tables(reopened)) == len(_tables(store))
    for loaded, original in zip(_tables(reopened), _tables(store)):
        assert loaded.file_name == original.file_name
        assert loaded._bloom.bits == original._bloom.bits
        assert loaded._bloom.bit_count == original._bloom.bit_count
        assert loaded._bloom.probes == original._bloom.probes
        assert loaded.stats.raw_bytes == original.stats.raw_bytes > 0
    # so an absent key is still turned away without a decode
    assert reopened.get(b"zzz/not/present") is None
    assert reopened.bloom_skips == reopened.sst_count
    assert reopened.stats.blocks_decompressed == 0
    for key, value in records[::9]:
        assert reopened.get(key) == value


def test_modeled_recovery_charges_the_bytes_it_reads_and_nothing_else(built):
    store, __ = built
    report = KVStore.open(store.storage, **_KWARGS).last_recovery
    assert report.modeled_seconds == pytest.approx(
        db_mod._RECOVERY_BASE_SECONDS
        + (report.sst_bytes + report.wal_bytes_replayed)
        / db_mod._RECOVERY_READ_BYTES_PER_SECOND
    )

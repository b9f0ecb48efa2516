"""The LSM keeps one ledger, and its counters never run backwards.

A store hands its :class:`~repro.services.kvstore.KVStoreStats` to every
table it builds or opens, so a table's encode and decode work, bloom skips
and point-read decodes are counted once, where they happen, and outlive the
table when compaction retires it. Block-cache hits are the cache's own
count. When each table kept counters of its own and the store summed the
live ones, a compaction made ``bloom_skips`` and ``block_cache_hits`` fall
back to what the new tables had seen.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.codecs import get_codec
from repro.codecs.base import StageCounters
from repro.corpus import generate_kv_records
from repro.services.kvstore import KVStore, SSTable

_KWARGS = dict(
    block_size=1024,
    memtable_bytes=1 << 12,
    level0_table_limit=2,
    block_cache_bytes=1 << 14,
)
SEEDS = (0, 1, 2)


def _workload(store: KVStore, seed: int):
    """Puts with flushes (and the compactions they trigger), absent-key
    gets, repeated hot-key gets and range scans, interleaved by ``seed``;
    yields after every step."""
    records = generate_kv_records(500, seed=seed)
    rng = random.Random(seed)
    model = {}
    for step, (key, value) in enumerate(records):
        store.put(key, value)
        model[key] = value
        draw = rng.random()
        if draw < 0.06:
            store.flush()
        elif draw < 0.35:
            assert store.get(b"absent/%06d" % step) is None
        elif draw < 0.8:
            hot = records[rng.randrange(min(len(model), 6))][0]
            assert store.get(hot) == model[hot]
        elif draw < 0.85:
            start = records[rng.randrange(len(model))][0]
            for found, value in store.scan_range(start, start + b"\xff"):
                assert model[found] == value
        yield step


def _counts(store: KVStore):
    return (
        store.bloom_skips,
        store.block_cache_hits,
        store.stats.blocks_decompressed,
        *dataclasses.astuple(store.stats.decompress_counters),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_store_counters_never_run_backwards(seed):
    store = KVStore(**_KWARGS)
    previous = _counts(store)
    for __ in _workload(store, seed):
        now = _counts(store)
        assert all(b >= a for a, b in zip(previous, now)), (previous, now)
        assert store.block_cache_hits == store.block_cache.stats.hits
        previous = now
    # the run is the one the assertions are about
    assert store.stats.compactions >= 2
    assert store.bloom_skips > 0 and store.block_cache_hits > 0
    assert store.stats.blocks_decompressed > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_the_ledger_counts_every_decode_the_codec_makes(seed, monkeypatch):
    decoded = {"calls": 0, "counters": StageCounters()}
    codec_class = type(get_codec("zstd"))
    decompress = codec_class.decompress

    def counted(self, *args, **kwargs):
        result = decompress(self, *args, **kwargs)
        decoded["calls"] += 1
        decoded["counters"].merge(result.counters)
        return result

    monkeypatch.setattr(codec_class, "decompress", counted)
    store = KVStore(**_KWARGS)
    for __ in _workload(store, seed):
        assert store.stats.blocks_read == decoded["calls"]
        assert store.stats.decompress_counters == decoded["counters"]
    # point reads, scans and compactions all decoded blocks; point reads
    # are the only ones ``blocks_decompressed`` counts
    assert store.stats.compactions >= 2
    assert 0 < store.stats.blocks_decompressed < store.stats.blocks_read


def test_a_store_shares_its_ledger_and_a_lone_table_keeps_its_own():
    store = KVStore(**_KWARGS)
    for __ in _workload(store, 0):
        pass
    tables = [table for level in store.levels for table in level]
    assert tables and all(table.stats is store.stats for table in tables)
    reopened = KVStore.open(store.storage, **_KWARGS)
    assert all(
        table.stats is reopened.stats for level in reopened.levels for table in level
    )
    # a lone table's ledger holds its own build and nothing else
    lone =SSTable.build(generate_kv_records(50, seed=3), block_size=1024)
    assert lone.stats is not store.stats
    assert lone.stats.stored_bytes_written == lone.stored_bytes > 0
    assert lone.stats.raw_bytes_written == lone.raw_bytes > lone.stored_bytes

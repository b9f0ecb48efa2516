"""FaultyCodec / FaultyChannel / scrub_* wrappers."""

import pytest

from repro.codecs import get_codec
from repro.codecs.base import CorruptDataError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultyChannel,
    FaultyCodec,
    InjectedCodecError,
    scrub_cache,
    scrub_sstable,
)
from repro.resilience import SimClock
from repro.services.cache.client import CacheClient
from repro.services.cache.server import CacheServer
from repro.services.kvstore import KVStore
from repro.services.rpc import Channel


def _injector(*specs, seed=0):
    return FaultInjector(FaultPlan("test", tuple(specs)), seed=seed)


class TestFaultyCodec:
    def test_transparent_without_faults(self):
        codec = FaultyCodec(get_codec("zstd"), _injector())
        data = b"transparent payload " * 50
        assert codec.decompress(codec.compress(data, 3).data).data == data
        assert codec.injected_failures == 0

    def test_fail_raises_injected_error(self):
        codec = FaultyCodec(
            get_codec("zstd"), _injector(FaultSpec("codec", "fail", 1.0))
        )
        with pytest.raises(InjectedCodecError):
            codec.compress(b"data " * 20, 1)
        assert codec.injected_failures == 1

    def test_slow_advances_clock(self):
        clock = SimClock()
        codec = FaultyCodec(
            get_codec("zstd"),
            _injector(FaultSpec("codec", "slow", 1.0, magnitude=0.5)),
            clock=clock,
        )
        codec.compress(b"data " * 20, 1)
        assert clock.now() == pytest.approx(0.5)
        assert codec.injected_slow_seconds == pytest.approx(0.5)

    def test_decompress_corruption_is_per_call(self):
        """Corruption hits one call's view; the payload at rest survives."""
        inner = get_codec("zstd")
        blob = inner.compress(b"precious data " * 64, 3).data
        codec = FaultyCodec(
            inner,
            _injector(
                FaultSpec("codec.zstd.decompress", "bit_flip", 1.0, magnitude=8)
            ),
        )
        with pytest.raises(CorruptDataError):
            codec.decompress(blob)
        # the stored bytes were never touched
        assert inner.decompress(blob).data == b"precious data " * 64

    def test_site_targets_only_named_direction(self):
        codec = FaultyCodec(
            get_codec("zstd"),
            _injector(FaultSpec("codec.zstd.decompress", "fail", 1.0)),
        )
        result = codec.compress(b"data " * 20, 1)  # compress unaffected
        with pytest.raises(InjectedCodecError):
            codec.decompress(result.data)

    def test_wraps_codec_metadata(self):
        inner = get_codec("lz4")
        codec = FaultyCodec(inner, _injector())
        assert codec.name == inner.name
        assert codec.min_level == inner.min_level
        assert codec.supports_dictionaries() == inner.supports_dictionaries()


class TestFaultyChannel:
    def test_attaches_injector_and_delegates(self):
        channel = Channel(codec=get_codec("zstd"))
        injector = _injector()
        faulty = FaultyChannel(channel, injector)
        assert channel.injector is injector
        payload = b"over the wire " * 30
        received, elapsed = faulty.send(payload)
        assert received == payload
        assert elapsed > 0
        assert faulty.stats.messages == 1  # attribute delegation


class TestScrubSstable:
    _CERTAIN_FLIPS = FaultSpec("kvstore.storage", "bit_flip", 1.0, magnitude=4)

    def _store(self):
        """A store holding one flushed table of 200 keys in 1 KiB blocks."""
        store = KVStore(codec=get_codec("zstd"), block_size=1024)
        for i in range(200):
            store.put(b"key-%04d" % i, b"value %04d " % i * 8)
        store.flush()
        return store

    def test_certain_corruption_damages_every_block(self):
        store = self._store()
        (table,) = store.levels[0]
        damaged = scrub_sstable(
            store.storage, table, _injector(self._CERTAIN_FLIPS)
        )
        assert damaged == list(range(table.block_count))

    def test_damaged_blocks_quarantine_on_read(self):
        store = self._store()
        (table,) = store.levels[0]
        scrub_sstable(store.storage, table, _injector(self._CERTAIN_FLIPS))
        found, value, __ = table.get(b"key-0000")
        assert not found and value is None  # miss, not an exception
        assert table.quarantined_count >= 1
        assert table.stats.quarantined[0].source == "kvstore.sst"

    def test_damage_survives_reopen(self):
        store = self._store()
        (table,) = store.levels[0]
        damaged = scrub_sstable(
            store.storage, table, _injector(self._CERTAIN_FLIPS)
        )
        assert damaged
        reopened = KVStore.open(store.storage, block_size=1024)
        assert reopened.last_recovery.filters_loaded == 1
        assert reopened.last_recovery.filters_dropped == 0
        assert all(reopened.get(b"key-%04d" % i) is None for i in range(200))
        assert reopened.quarantined_blocks == len(damaged)

    def test_cut_block_reads_zeros_and_keeps_the_file_layout(self):
        store = self._store()
        (table,) = store.levels[0]
        image = bytes(store.storage.view(table.file_name))
        damaged = scrub_sstable(
            store.storage,
            table,
            _injector(FaultSpec("kvstore.storage", "truncate", 1.0)),
        )
        assert damaged == list(range(table.block_count))
        after = bytes(store.storage.view(table.file_name))
        assert len(after) == len(image)
        for offset, length in table.block_spans:
            cut = after[offset : offset + length]
            kept = len(cut.rstrip(b"\0"))
            assert kept < length
            assert cut[:kept] == image[offset : offset + kept]
        first, __ = table.block_spans[0]
        last, length = table.block_spans[-1]
        assert after[:first] == image[:first]  # header and first key
        assert after[last + length :] == image[last + length :]  # footer

    def test_no_plan_no_damage(self):
        store = self._store()
        (table,) = store.levels[0]
        assert scrub_sstable(store.storage, table, _injector()) == []
        found, value, __ = table.get(b"key-0007")
        assert found and value == b"value 0007 " * 8


class TestScrubCache:
    def test_scrubbed_entry_quarantined_on_get(self):
        server = CacheServer(codec=get_codec("zstd"), min_compress_size=16)
        client = CacheClient(server)
        value = b"cache value with structure " * 16
        server.set(b"k1", "t", value)
        damaged = scrub_cache(
            server,
            _injector(FaultSpec("cache.payload", "bit_flip", 1.0, magnitude=8)),
        )
        assert damaged == [b"k1"]
        assert client.get(b"k1") is None  # miss, not an exception
        assert server.stats.corrupt_evictions == 1
        assert b"k1" not in server
        # recovery: re-install from the source of truth
        server.set(b"k1", "t", value)
        assert client.get(b"k1") == value

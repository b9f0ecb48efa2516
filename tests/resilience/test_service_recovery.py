"""Resilience threaded through the services: each fault class recovers.

These are the integration contracts the chaos scorecard certifies in
bulk; here each one is pinned individually with scripted faults.
"""

import pytest

from repro.codecs import get_codec
from repro.codecs.base import CodecError, CorruptDataError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, FaultyCodec
from repro.faults.plan import WireEffects
from repro.resilience import CircuitBreaker, RetryPolicy, SimClock
from repro.services.cache.client import CacheClient
from repro.services.cache.server import CacheServer
from repro.services.farmemory import FarMemoryPool, PageLostError
from repro.services.kvstore.db import KVStore
from repro.services.managed import DictionaryRetiredError, ManagedCompression
from repro.services.rpc import (
    Channel,
    RpcExhaustedError,
    RpcTimeoutError,
)


class _ScriptedWire:
    """Injector stand-in whose per-attempt wire effects follow a script."""

    def __init__(self, effects):
        self.effects = list(effects)

    def on_wire(self, site, payload):
        if self.effects:
            return self.effects.pop(0)
        return WireEffects(payload, False, 0.0, ())


def _drop(payload=b""):
    return WireEffects(payload, True, 0.0, ("drop",))


def _pass(payload):
    return WireEffects(payload, False, 0.0, ())


class TestRpcRetry:
    def _channel(self, retry, timeout=None):
        return Channel(
            codec=get_codec("zstd"),
            timeout_seconds=timeout,
            retry=retry,
        )

    def test_drop_then_success_recovers(self):
        channel = self._channel(RetryPolicy(max_attempts=3, jitter=0.0))
        channel.injector = _ScriptedWire([_drop()])
        payload = b"message body " * 40
        received, elapsed = channel.send(payload)
        assert received == payload
        assert channel.stats.retries == 1
        assert channel.stats.drops == 1
        assert channel.stats.recovered_messages == 1
        assert channel.stats.failed_messages == 0
        assert channel.stats.backoff_seconds > 0
        assert elapsed > channel.stats.backoff_seconds  # backoff included

    def test_budget_exhaustion_raises_typed_error(self):
        channel = self._channel(RetryPolicy(max_attempts=2, jitter=0.0))
        channel.injector = _ScriptedWire([_drop(), _drop()])
        with pytest.raises(RpcExhaustedError):
            channel.send(b"doomed " * 20)
        assert channel.stats.failed_messages == 1
        assert channel.stats.recovered_messages == 0

    def test_no_retry_policy_raises_original_error(self):
        channel = self._channel(retry=None)
        channel.injector = _ScriptedWire([_drop()])
        from repro.services.rpc import ChannelDropError

        with pytest.raises(ChannelDropError):
            channel.send(b"one shot " * 20)

    def test_timeout_is_retryable(self):
        channel = self._channel(
            RetryPolicy(max_attempts=2, jitter=0.0), timeout=0.01
        )
        channel.injector = _ScriptedWire(
            [  # 20 ms latency spike blows the 10 ms deadline once
                WireEffects(b"", False, 0.02, ("latency",)),
            ]
        )
        # the spike consumed attempt 1; attempt 2 sails through
        payload = b"deadline bound " * 20
        received, __ = channel.send(payload)
        assert received == payload
        assert channel.stats.timeouts == 1
        assert channel.stats.recovered_messages == 1

    def test_timeout_without_injector(self):
        channel = Channel(
            codec=get_codec("zstd"),
            bandwidth_bytes_per_second=1.0,  # absurdly slow wire
            timeout_seconds=0.001,
        )
        with pytest.raises(RpcTimeoutError):
            channel.send(b"too big for the deadline " * 10)

    def test_corrupt_payload_is_retryable(self):
        channel = self._channel(RetryPolicy(max_attempts=3, jitter=0.0))

        class _CorruptOnce(_ScriptedWire):
            def on_wire(self, site, payload):
                if self.effects:
                    self.effects.pop()
                    damaged = bytes(b ^ 0xFF for b in payload[:8]) + payload[8:]
                    return WireEffects(damaged, False, 0.0, ("bit_flip",))
                return WireEffects(payload, False, 0.0, ())

        channel.injector = _CorruptOnce([1])
        payload = b"verify me " * 40
        received, __ = channel.send(payload)
        assert received == payload
        assert channel.stats.corrupt_payloads == 1
        assert channel.stats.recovered_messages == 1


class TestCacheRecovery:
    def test_corrupt_entry_quarantined_then_refilled(self):
        server = CacheServer(codec=get_codec("zstd"), min_compress_size=16)
        client = CacheClient(server)
        value = b"structured cache item " * 20
        server.set(b"k", "t", value)
        __, compressed, stored = server.stored_entry(b"k")
        assert compressed
        server.replace_stored(b"k", bytes(b ^ 0xFF for b in stored[:6]) + stored[6:])
        assert client.get(b"k") is None
        assert client.stats.decode_failures == 1
        assert server.stats.corrupt_evictions == 1
        assert b"k" not in server  # honest miss for every later reader
        server.set(b"k", "t", value)  # the re-fetch-and-refill recovery
        assert client.get(b"k") == value

    def test_breaker_trips_to_raw_passthrough(self):
        clock = SimClock()
        breaker = CircuitBreaker(
            "cache", failure_threshold=2, cooldown_seconds=1e9, clock=clock
        )
        codec = FaultyCodec(
            get_codec("zstd"),
            FaultInjector(
                FaultPlan("p", (FaultSpec("codec", "fail", 1.0),)), seed=0
            ),
        )
        server = CacheServer(codec=codec, min_compress_size=16, breaker=breaker)
        client = CacheClient(server)
        for i in range(5):
            server.set(b"k%d" % i, "t", b"value %d " % i * 16)
        # first two sets fail the codec and trip the breaker; the rest
        # go straight to raw passthrough without touching the codec
        assert server.stats.compress_failures == 2
        assert server.stats.raw_fallbacks == 3
        assert breaker.state == "open"
        # raw entries still serve correctly
        for i in range(5):
            assert client.get(b"k%d" % i) == b"value %d " % i * 16

    def test_transient_decode_failure_degrades_to_miss_without_eviction(self):
        # fail rate 1.0 on decompress: both the first try and the one
        # retry raise the *transient* InjectedCodecError (not corruption)
        codec = FaultyCodec(
            get_codec("zstd"),
            FaultInjector(
                FaultPlan(
                    "p", (FaultSpec("codec.zstd.decompress", "fail", 1.0),)
                ),
                seed=0,
            ),
        )
        server = CacheServer(codec=codec, min_compress_size=16)
        client = CacheClient(server)
        value = b"still fine at rest " * 16
        server.set(b"k", "t", value)
        assert client.get(b"k") is None
        assert client.stats.decode_failures == 1
        assert b"k" in server  # NOT evicted: the bytes may be fine


def _rot(storage, name, table, block_index):
    """Invert the first four bytes of one block in the stored file."""
    offset, __ = table.block_spans[block_index]
    head = storage.view(name)[offset : offset + 4]
    storage.decay(name, offset, bytes(b ^ 0xFF for b in head))


class _CutFirstBlock:
    """zstd, except that the first block it compresses loses its last
    three bytes first: a block whose last value is shorter than the
    length in front of it."""

    name = "zstd"

    def __init__(self):
        self.inner = get_codec("zstd")
        self.cut = False

    def compress(self, data, level=None):
        if not self.cut:
            self.cut = True
            data = data[:-3]
        return self.inner.compress(data, level)

    def decompress(self, payload):
        return self.inner.decompress(payload)


class TestKvstoreRecovery:
    def test_older_level_serves_after_newest_block_rots(self):
        store = KVStore(
            codec=get_codec("zstd"), block_size=512, memtable_bytes=1 << 16
        )
        value = b"durable row " * 10
        store.put(b"key", value)
        store.flush()  # older table holding the key
        store.put(b"key", value)
        store.flush()  # newest table holding the same key
        assert store.sst_count == 2
        newest = store.levels[0][0]
        for i in range(newest.block_count):
            _rot(store.storage, newest.file_name, newest, i)
        assert store.get(b"key") == value  # fell through to the older level
        assert store.quarantined_blocks >= 1

    def test_all_copies_rotted_reports_missing_not_crash(self):
        store = KVStore(
            codec=get_codec("zstd"), block_size=512, memtable_bytes=1 << 16
        )
        store.put(b"key", b"value " * 10)
        store.flush()
        table = store.levels[0][0]
        for i in range(table.block_count):
            _rot(store.storage, table.file_name, table, i)
        assert store.get(b"key") is None
        # re-put is the recovery
        store.put(b"key", b"value " * 10)
        store.flush()
        assert store.get(b"key") == b"value " * 10

    def test_verify_blocks_quarantines_at_load(self):
        from repro.services.kvstore import SimStorage
        from repro.services.kvstore.sst import SSTable

        entries = [(b"k%03d" % i, b"v %03d " % i * 8) for i in range(100)]
        table = SSTable.build(entries, codec=get_codec("zstd"), block_size=512)
        storage = SimStorage()
        storage.write_file("t.sst", table.to_bytes())
        _rot(storage, "t.sst", table, 3)
        loaded = SSTable.from_bytes(storage.view("t.sst"), verify_blocks=True)
        assert loaded.quarantined_count >= 1
        assert any(
            "load-time scrub" in q.reason for q in loaded.stats.quarantined
        )

    @pytest.mark.parametrize("read", ["get", "scan", "scan_range"])
    def test_block_with_a_lying_entry_length_is_quarantined(self, read):
        # the block decompresses cleanly, but its last value is shorter
        # than the length in front of it: never served as a short value
        from repro.services.kvstore.sst import SSTable, decode_entries

        codec = get_codec("zstd")
        entries = [(b"k%03d" % i, b"v %03d " % i * 8) for i in range(100)]
        clean = SSTable.build(entries, codec=codec, block_size=512)
        offset, length = clean.block_spans[0]
        plain = codec.decompress(clean.to_bytes()[offset : offset + length]).data
        in_block = decode_entries(plain, 0)
        assert in_block == entries[: len(in_block)]
        with pytest.raises(CorruptDataError):
            decode_entries(plain[:-3], 0)
        table = SSTable.build(entries, codec=_CutFirstBlock(), block_size=512)

        if read == "get":
            found, value, __ = table.get(in_block[-1][0])
            assert (found, value) == (False, None)
        elif read == "scan":
            assert list(table.scan()) == entries[len(in_block) :]
        else:
            assert list(table.scan_range(b"k000", b"k999")) == entries[len(in_block) :]
        assert table.quarantined_count == 1
        assert table.stats.quarantined[0].identifier == "block 0"

    def test_compaction_survives_quarantined_blocks(self):
        store = KVStore(
            codec=get_codec("zstd"),
            block_size=256,
            memtable_bytes=512,
            level0_table_limit=2,
        )
        for i in range(40):
            store.put(b"key-%03d" % i, b"value %03d " % i * 8)
        store.flush()
        table = store.levels[0][0]
        _rot(store.storage, table.file_name, table, 0)
        # force compaction across the damaged table: must not raise
        for i in range(40, 120):
            store.put(b"key-%03d" % i, b"value %03d " % i * 8)
        store.flush()
        assert store.get(b"key-119") == b"value 119 " * 8


class TestFarMemoryRecovery:
    def _pool(self, specs, threshold=3):
        clock = SimClock()
        breaker = CircuitBreaker(
            "farmem", failure_threshold=threshold,
            cooldown_seconds=2.0, clock=clock,
        )
        codec = FaultyCodec(
            get_codec("zstd"),
            FaultInjector(FaultPlan("p", tuple(specs)), seed=0),
            clock=clock,
        )
        return FarMemoryPool(
            codec=codec, cold_age_ticks=1, breaker=breaker, tick_seconds=1.0
        )

    def test_page_lost_then_rebuilt(self):
        pool = self._pool([])
        data = b"page contents " * 200  # < PAGE_SIZE, padded on write
        pool.write(0, data)
        pool.tick()
        pool.tick()  # page now compressed
        assert pool.stats.pages_compressed == 1
        # from here on, every decompress fails twice -> page lost
        pool.codec.injector.plan = FaultPlan(
            "p", (FaultSpec("codec.zstd.decompress", "fail", 1.0),)
        )
        with pytest.raises(PageLostError) as excinfo:
            pool.read(0)
        assert excinfo.value.page_number == 0
        assert pool.stats.pages_lost == 1
        assert 0 not in pool._pages
        # recovery: rebuild from the source of truth
        pool.codec.injector.plan = FaultPlan("p", ())
        pool.write(0, data)
        assert pool.read(0)[: len(data)] == data

    def test_breaker_skips_reclaim_compression_when_open(self):
        pool = self._pool(
            [FaultSpec("codec.zstd.compress", "fail", 1.0)], threshold=2
        )
        for i in range(4):
            pool.write(i, b"cold page %d " % i * 100)
        pool.tick()
        pool.tick()  # failures trip the breaker
        assert pool.breaker.state == "open"
        pool.tick()  # now skipped, not attempted
        assert pool.stats.compression_skips > 0
        assert pool.stats.pages_compressed == 0
        # pages stay resident and readable
        for i in range(4):
            assert pool.read(i)[:10] == (b"cold page %d " % i * 100)[:10]


class TestManagedRecovery:
    def _churn(self, service, use_case, blobs_wanted=30):
        blobs = []
        for i in range(blobs_wanted):
            data = b"log record %03d shared shape " % i * 6
            blobs.append((data, service.compress(use_case, data)))
        return blobs

    def test_retired_version_raises_typed_error(self):
        service = ManagedCompression(codec=get_codec("zstd"), sample_every=1)
        service.register_use_case(
            "logs", retrain_interval=8, max_versions=1, dictionary_size=2048
        )
        blobs = self._churn(service, "logs")
        retired = [
            (data, blob)
            for data, blob in blobs
            if blob.dictionary_version
            and blob.dictionary_version not in service.available_versions("logs")
        ]
        assert retired  # max_versions=1 with several retrains must retire some
        with pytest.raises(DictionaryRetiredError) as excinfo:
            service.decompress(retired[0][1])
        error = excinfo.value
        assert error.use_case == "logs"
        assert error.version == retired[0][1].dictionary_version
        assert error.available == service.available_versions("logs")
        assert isinstance(error, CodecError)

    def test_retired_handler_recovers(self):
        current = {}

        def handler(error):
            # the caller knows which blob it is decoding; it re-fetches
            # that blob's plaintext from its own source of truth
            return current["data"]

        service = ManagedCompression(
            codec=get_codec("zstd"), sample_every=1, retired_handler=handler
        )
        service.register_use_case(
            "logs", retrain_interval=8, max_versions=1, dictionary_size=2048
        )
        blobs = self._churn(service, "logs")
        stats = service.stats("logs")
        for data, blob in blobs:
            current["data"] = data
            assert service.decompress(blob) == data  # never raises
        assert stats.retired_blobs > 0
        assert stats.recoveries == stats.retired_blobs

    def test_drop_dictionary_forces_the_path(self):
        service = ManagedCompression(codec=get_codec("zstd"), sample_every=1)
        service.register_use_case(
            "logs", retrain_interval=8, max_versions=4, dictionary_size=2048
        )
        blobs = self._churn(service, "logs", blobs_wanted=12)
        version = service.current_version("logs")
        assert version >= 1
        dict_blobs = [b for __, b in blobs if b.dictionary_version == version]
        assert dict_blobs
        assert service.drop_dictionary("logs", version)
        assert not service.drop_dictionary("logs", version)  # already gone
        with pytest.raises(DictionaryRetiredError):
            service.decompress(dict_blobs[0])
        # compression degrades to dictionary-less and stays decodable
        blob = service.compress("logs", b"after the loss " * 6)
        assert blob.dictionary_version == 0
        assert service.decompress(blob) == b"after the loss " * 6

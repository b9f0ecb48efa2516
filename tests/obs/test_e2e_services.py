"""End-to-end: instrumentation through the service substrates.

The key contract (Fig. 13 fidelity): a kvstore get that misses the block
cache records exactly one block-decode latency observation; a get served
from the cache records zero.
"""

from __future__ import annotations

from repro import obs
from repro.obs.instrument import (
    BLOCK_CACHE,
    BLOCK_DECODE_SECONDS,
    CACHE_REQUESTS,
    CODEC_CALLS,
    CODEC_STAGE_OPS,
    FLEET_SAMPLES,
    RPC_BYTES,
    RPC_MESSAGES,
)
from repro.obs.spans import SPAN_METRIC
from repro.services.cache import CacheClient, CacheServer
from repro.services.kvstore import KVStore, SSTable
from repro.services.kvstore.blockcache import BlockCache
from repro.services.rpc import Channel


def _entries(n: int):
    return [
        (b"key:%06d" % i, b"value-payload-%06d|" % i * 4) for i in range(n)
    ]


class TestKVStoreBlockDecode:
    def test_miss_records_one_observation_hit_records_none(self, fresh_obs):
        cache = BlockCache(1 << 20)
        table = SSTable.build(
            _entries(200), level=1, block_size=1024,
            bloom_bits_per_key=0, block_cache=cache,
        )
        key = b"key:000042"
        hist = lambda: fresh_obs.get(BLOCK_DECODE_SECONDS)

        found, _, _ = table.get(key)  # cold: decode the block
        assert found
        assert hist().count(algorithm="zstd") == 1

        found, _, _ = table.get(key)  # hot: served from the block cache
        assert found
        assert hist().count(algorithm="zstd") == 1  # unchanged

        probes = fresh_obs.get(BLOCK_CACHE)
        assert probes.value(result="miss") == 1
        assert probes.value(result="hit") == 1

    def test_uncached_store_records_every_decode(self, fresh_obs):
        table = SSTable.build(
            _entries(100), level=1, block_size=1024, bloom_bits_per_key=0
        )
        key = b"key:000007"
        table.get(key)
        table.get(key)
        hist = fresh_obs.get(BLOCK_DECODE_SECONDS)
        assert hist.count(algorithm="zstd") == 2  # no cache: decode both times

    def test_full_store_read_path(self, fresh_obs):
        store = KVStore(
            block_size=1024, memtable_bytes=4 << 10,
            block_cache_bytes=64 << 10, bloom_bits_per_key=0,
        )
        for key, value in _entries(120):
            store.put(key, value)
        store.flush()
        assert store.get(b"key:000003") is not None
        hist = fresh_obs.get(BLOCK_DECODE_SECONDS)
        first = hist.count(algorithm="zstd")
        assert first >= 1
        assert store.get(b"key:000003") is not None  # cached now
        assert hist.count(algorithm="zstd") == first


class TestRpcTelemetry:
    def test_send_emits_codec_and_message_series(self, fresh_obs):
        channel = Channel(level=1)
        payload = b"the quick brown fox jumps over the lazy dog " * 50
        received, _ = channel.send(payload)
        assert received == payload

        calls = fresh_obs.get(CODEC_CALLS)
        assert calls.value(
            algorithm="zstd", direction="compress", level="1"
        ) == 1
        assert calls.value(
            algorithm="zstd", direction="decompress", level="na"
        ) == 1
        stage_ops = fresh_obs.get(CODEC_STAGE_OPS)
        assert stage_ops.value(
            algorithm="zstd", direction="compress", level="1",
            stage="match_finding",
        ) > 0
        assert fresh_obs.get(RPC_MESSAGES).value(algorithm="zstd") == 1
        rpc_bytes = fresh_obs.get(RPC_BYTES)
        assert rpc_bytes.value(algorithm="zstd", kind="raw") == len(payload)
        assert 0 < rpc_bytes.value(algorithm="zstd", kind="wire") < len(payload)
        # the send shows up as a flame path
        spans = fresh_obs.get(SPAN_METRIC)
        assert spans.count(path="rpc.send", error="false") == 1

    def test_disabled_channel_records_nothing(self):
        obs.reset()
        obs.disable()
        Channel(level=1).send(b"payload " * 100)
        assert obs.get_registry().get(CODEC_CALLS) is None
        assert obs.get_registry().get(RPC_MESSAGES) is None


class TestCacheTelemetry:
    def test_server_and_client_ops_counted(self, fresh_obs):
        server = CacheServer(level=1)
        client = CacheClient(server)
        server.set(b"k1", "t", b"value " * 64)
        assert client.get(b"k1") is not None
        assert client.get(b"absent") is None
        requests = fresh_obs.get(CACHE_REQUESTS)
        assert requests.value(op="set", result="stored") == 1
        assert requests.value(op="get", result="hit") == 1
        assert requests.value(op="get", result="miss") == 1
        assert requests.value(op="client_get", result="hit") == 1
        assert requests.value(op="client_get", result="miss") == 1


class TestFleetTelemetry:
    def test_profiler_run_emits_leaf_counters(self, fresh_obs):
        from repro.fleet import SamplingProfiler

        samples = SamplingProfiler(samples_per_day=2000, seed=3).run(days=1)
        leaves = fresh_obs.get(FLEET_SAMPLES)
        recorded = leaves.total()
        assert recorded == sum(s.weight for s in samples) == 2000
        # the (algorithm, direction, level, stage) key survives end to end
        assert any(
            dict(key).get("stage") == "match_finding"
            for key in leaves.label_keys()
        )

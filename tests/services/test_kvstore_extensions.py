"""Bloom filter and block cache tests for the LSM store."""

import random

import pytest

from repro.corpus import generate_kv_records
from repro.services import KVStore
from repro.services.kvstore import BlockCache, BloomFilter, SSTable


class TestBloomFilter:
    def test_added_keys_are_found(self):
        bloom = BloomFilter(capacity=100)
        keys = [b"key-%d" % i for i in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)

    def test_absent_keys_mostly_rejected(self):
        bloom = BloomFilter(capacity=500, bits_per_key=10)
        for i in range(500):
            bloom.add(b"present-%d" % i)
        false_positives = sum(
            bloom.might_contain(b"absent-%d" % i) for i in range(2000)
        )
        # 10 bits/key -> ~1% theoretical false-positive rate; allow 5%.
        assert false_positives < 100

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, bits_per_key=0)

    def test_size_scales_with_capacity(self):
        small = BloomFilter(capacity=100, bits_per_key=10)
        large = BloomFilter(capacity=10000, bits_per_key=10)
        assert large.size_bytes > small.size_bytes


class TestBlockCache:
    def test_get_miss_then_hit(self):
        cache = BlockCache(1024)
        assert cache.get((1, 0)) is None
        cache.put((1, 0), b"block data")
        assert cache.get((1, 0)) == b"block data"
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = BlockCache(100)
        cache.put((1, 0), b"a" * 40)
        cache.put((1, 1), b"b" * 40)
        cache.get((1, 0))  # touch: (1,1) is now LRU
        cache.put((1, 2), b"c" * 40)  # evicts (1,1)
        assert cache.get((1, 1)) is None
        assert cache.get((1, 0)) is not None

    def test_oversized_block_not_cached(self):
        cache = BlockCache(64)
        cache.put((1, 0), b"x" * 100)
        assert len(cache) == 0

    def test_capacity_respected(self):
        cache = BlockCache(200)
        for i in range(10):
            cache.put((1, i), b"y" * 50)
        assert cache._used <= 200
        assert cache.stats.evictions > 0

    def test_replace_same_key(self):
        cache = BlockCache(1024)
        cache.put((1, 0), b"old")
        cache.put((1, 0), b"newer data")
        assert cache.get((1, 0)) == b"newer data"
        assert cache._used == len(b"newer data")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BlockCache(0)


class TestSSTableWithExtensions:
    @pytest.fixture(scope="class")
    def entries(self):
        return generate_kv_records(600, seed=31)

    def test_bloom_skips_absent_keys_without_decode(self, entries):
        table = SSTable.build(entries, level=1, block_size=4096)
        before = table.stats.blocks_read
        found, __, decode_seconds = table.get(b"svc7/shard999/zzz/999")
        assert not found
        assert decode_seconds == 0.0
        assert table.stats.blocks_read == before
        assert table.stats.bloom_skips >= 1

    def test_bloom_disabled(self, entries):
        table = SSTable.build(entries, level=1, bloom_bits_per_key=0)
        table.get(b"absent-key-xyz")
        assert table.stats.bloom_skips == 0

    def test_block_cache_serves_repeat_reads(self, entries):
        cache = BlockCache(1 << 20)
        table = SSTable.build(entries, level=1, block_size=4096, block_cache=cache)
        key = entries[300][0]
        __, __, first_decode = table.get(key)
        __, __, second_decode = table.get(key)
        assert first_decode > 0.0
        assert second_decode == 0.0
        assert table.stats.cache_hits == 1

    def test_reads_correct_through_cache(self, entries):
        cache = BlockCache(1 << 18)
        table = SSTable.build(entries, level=1, block_size=2048, block_cache=cache)
        for key, value in entries[::13]:
            found, got, __ = table.get(key)
            assert found and got == value
        # second pass exercises both cached and evicted paths
        for key, value in entries[::13]:
            found, got, __ = table.get(key)
            assert found and got == value


class TestKVStoreWithExtensions:
    def test_store_with_cache_and_bloom(self):
        store = KVStore(
            block_cache_bytes=1 << 20,
            memtable_bytes=1 << 14,
            block_size=4096,
        )
        records = generate_kv_records(800, seed=32)
        for key, value in records:
            store.put(key, value)
        store.flush()
        # repeated reads hit the cache
        for __ in range(2):
            for key, value in records[::19]:
                assert store.get(key) == value
        assert store.block_cache_hits > 0
        # absent keys are answered by blooms
        assert store.get(b"zz/absent") is None
        assert store.bloom_skips > 0

    def test_cache_reduces_mean_read_latency(self):
        def run(cache_bytes):
            store = KVStore(
                block_cache_bytes=cache_bytes,
                memtable_bytes=1 << 14,
                block_size=8192,
            )
            records = generate_kv_records(600, seed=33)
            for key, value in records:
                store.put(key, value)
            store.flush()
            for __ in range(3):
                for key, __v in records[::11]:
                    store.get(key)
            return store.stats.mean_read_decode_seconds

        with_cache = run(1 << 22)
        without_cache = run(None)
        assert with_cache < without_cache

    def test_cache_never_serves_a_retired_table(self):
        # many compactions retire many tables; a table made later must not
        # be answered from a retired table's cached blocks
        store = KVStore(
            block_cache_bytes=1 << 20, memtable_bytes=2048, block_size=1024
        )
        rng = random.Random(0)
        model = {}
        for round_ in range(100):
            for __ in range(40):
                key = b"key-%04d" % rng.randrange(100)
                model[key] = b"round %03d " % round_ + key * 4
                store.put(key, model[key])
            for key, value in sorted(model.items()):
                assert store.get(key) == value, (round_, key)
        assert store.stats.compactions > 10
        assert store.block_cache_hits > 0

    def test_bloom_disabled_store(self):
        store = KVStore(bloom_bits_per_key=0, memtable_bytes=1 << 13)
        records = generate_kv_records(200, seed=34)
        for key, value in records:
            store.put(key, value)
        store.flush()
        assert store.get(b"definitely/absent") is None
        assert store.bloom_skips == 0

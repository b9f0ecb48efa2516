"""Cache LRU eviction tests."""

from repro.corpus import CACHE1_TYPES, generate_cache_items
from repro.services import CacheClient, CacheServer


class TestCacheEviction:
    def test_capacity_respected(self):
        server = CacheServer(capacity_bytes=10_000)
        items = generate_cache_items(CACHE1_TYPES, 200, seed=41)
        for index, (type_name, payload) in enumerate(items):
            server.set(b"k%d" % index, type_name, payload)
        assert server.resident_bytes <= 10_000
        assert server.stats.evictions > 0

    def test_lru_order(self):
        server = CacheServer(capacity_bytes=2000, min_compress_size=10**9)
        server.set(b"a", "t", b"x" * 800)
        server.set(b"b", "t", b"y" * 800)
        client = CacheClient(server)
        client.get(b"a")  # touch a: b becomes LRU
        server.set(b"c", "t", b"z" * 800)  # evicts b
        assert b"a" in server
        assert b"b" not in server
        assert b"c" in server

    def test_unbounded_by_default(self):
        server = CacheServer()
        items = generate_cache_items(CACHE1_TYPES, 100, seed=42)
        for index, (type_name, payload) in enumerate(items):
            server.set(b"k%d" % index, type_name, payload)
        assert server.stats.evictions == 0
        assert len(server) == 100

    def test_compression_stretches_capacity(self):
        """The memory-TCO effect: at a fixed byte budget, a compressing
        cache holds more items, so its hit rate is higher."""
        items = generate_cache_items(CACHE1_TYPES, 250, seed=43)

        def resident_items(compressing: bool) -> int:
            server = CacheServer(
                capacity_bytes=30_000,
                min_compress_size=64 if compressing else 10**9,
            )
            for index, (type_name, payload) in enumerate(items):
                server.set(b"k%d" % index, type_name, payload)
            return len(server)

        assert resident_items(True) > 1.2 * resident_items(False)

    def test_overwrite_does_not_leak_bytes(self):
        server = CacheServer(capacity_bytes=100_000, min_compress_size=10**9)
        for __ in range(10):
            server.set(b"same", "t", b"v" * 500)
        assert server.resident_bytes == 500


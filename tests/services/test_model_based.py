"""Model-based tests: substrates vs. trivial reference models.

Hypothesis drives random operation sequences against the LSM store, the
cache, and the block cache, comparing every observable result with a plain
dict/OrderedDict model. These catch interaction bugs (flush/compaction
boundaries, eviction order, overwrite accounting) that example-based tests
miss.
"""

from collections import OrderedDict

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.services import CacheServer, CacheClient, KVStore
from repro.services.kvstore import BlockCache, Manifest

_keys = st.binary(min_size=1, max_size=12)
_values = st.binary(max_size=200)


class KVStoreModel(RuleBasedStateMachine):
    """KVStore vs dict, with random flushes forcing SST/compaction paths
    and random reopens forcing recovery from the store's storage."""

    STORE_KWARGS = dict(memtable_bytes=1 << 11, level0_table_limit=2,
                        block_size=512)

    @initialize()
    def setup(self):
        self.store = KVStore(**self.STORE_KWARGS)
        self.model = {}

    @rule(key=_keys, value=_values)
    def put(self, key, value):
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=_keys)
    def delete(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.store.flush()

    @rule()
    def reopen(self):
        self.store = KVStore.open(self.store.storage, **self.STORE_KWARGS)

    @rule(key=_keys)
    def get_matches_model(self, key):
        assert self.store.get(key) == self.model.get(key)

    @invariant()
    def range_scan_matches_model(self):
        got = dict(self.store.scan_range(b"\x00", b"\xff" * 13))
        assert got == self.model

    @invariant()
    def manifest_matches_levels(self):
        assert Manifest(self.store.storage).load().levels == [
            [table.file_name for table in level] for level in self.store.levels
        ]


class CacheModel(RuleBasedStateMachine):
    """Unbounded cache vs dict: every stored item must round-trip."""

    @initialize()
    def setup(self):
        self.server = CacheServer(level=1, min_compress_size=16)
        self.client = CacheClient(self.server)
        self.model = {}

    @rule(key=_keys, value=_values)
    def set_item(self, key, value):
        self.server.set(key, "t", value)
        self.model[key] = value

    @rule(key=_keys)
    def get_matches_model(self, key):
        assert self.client.get(key) == self.model.get(key)

    @invariant()
    def resident_bytes_consistent(self):
        assert len(self.server) == len(self.model)


class BlockCacheModel(RuleBasedStateMachine):
    """BlockCache vs a reference OrderedDict LRU with the same capacity."""

    CAPACITY = 400

    @initialize()
    def setup(self):
        self.cache = BlockCache(self.CAPACITY)
        self.model = OrderedDict()
        self.used = 0

    def _model_put(self, key, block):
        if len(block) > self.CAPACITY:
            return
        if key in self.model:
            self.used -= len(self.model.pop(key))
        self.model[key] = block
        self.used += len(block)
        while self.used > self.CAPACITY:
            __, evicted = self.model.popitem(last=False)
            self.used -= len(evicted)

    @rule(key=st.integers(0, 15), size=st.integers(0, 120))
    def put(self, key, size):
        block = bytes([key]) * size
        self.cache.put((0, key), block)
        self._model_put((0, key), block)

    @rule(key=st.integers(0, 15))
    def get(self, key):
        got = self.cache.get((0, key))
        expected = self.model.get((0, key))
        if expected is not None:
            self.model.move_to_end((0, key))
        assert got == expected

    @invariant()
    def bytes_and_membership_match(self):
        # the running byte count eviction reads matches the model's
        assert self.cache._used == self.used
        assert len(self.cache) == len(self.model)


TestKVStoreModel = pytest.mark.filterwarnings("ignore")(
    settings(max_examples=12, stateful_step_count=25, deadline=None)(
        KVStoreModel
    ).TestCase
)
TestCacheModel = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)(CacheModel).TestCase
TestBlockCacheModel = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)(BlockCacheModel).TestCase

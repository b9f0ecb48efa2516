"""Model-based tests: substrates vs. trivial reference models.

Hypothesis drives random operation sequences against the LSM store, the
cache, and the block cache, comparing every observable result with a plain
dict/OrderedDict model. These catch interaction bugs (flush/compaction
boundaries, eviction order, overwrite accounting) that example-based tests
miss. The LSM model is also the store's crash oracle: its fault rules
interleave crashes at every durable-path site, lying fsyncs and decayed SST
blocks with the same put / delete / flush / reopen sequences, and
:func:`replay_cell` drives one seeded crash cell through its rules.
"""

import random
from collections import OrderedDict

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.faults import (
    CrashInjector,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
)
from repro.services import CacheServer, CacheClient, KVStore
from repro.services.kvstore import BlockCache, Manifest
from repro.services.kvstore.db import (
    COMPACT_CLEANUP_SITE,
    COMPACT_SST_SITE,
    CRASH_SITES,
)
from repro.services.kvstore.storage import SYNC_SITE, SimStorage
from repro.services.kvstore.wal import APPEND_SITE

_keys = st.binary(min_size=1, max_size=12)
_values = st.binary(max_size=200)


class KVStoreModel(RuleBasedStateMachine):
    """KVStore vs dict, with random flushes forcing SST/compaction paths,
    random reopens forcing recovery from the store's storage, and the
    faults recovery must survive: a crash armed at a durable-path site
    (mid-write, mid-flush, mid-compaction, mid-manifest-swap), a power cut
    between calls, lying fsyncs, and media decay of a stored SST block.

    ``model`` is what the store must read back. It is exact outside two
    sets of keys: a key in ``doubt`` had its latest ack ride a dropped sync
    that no flush has covered yet, so a crash may roll it back to any value
    it held since its last durable write; a key in ``damaged`` lies in a
    decayed block's key range, so it may read as absent or as any value it
    ever held (``history``), never as anything else.
    """

    STORE_KWARGS = dict(memtable_bytes=1 << 11, level0_table_limit=2,
                        block_size=512, wal_segment_bytes=1 << 10)

    @initialize(seed=st.integers(0, 255))
    def setup(self, seed):
        self.storage = SimStorage(
            seed=seed,
            fault_injector=FaultInjector(FaultPlan.named("none"), seed=seed),
            crash_injector=CrashInjector(),
        )
        self.store = KVStore.open(self.storage, **self.STORE_KWARGS)
        self.model = {}
        #: every value each key held or was being written, absent included
        self.history = {}
        #: key -> the values a crash may leave it reading, durable one first
        self.doubt = {}
        self.damaged = set()
        #: (file name, block index) of every decayed block
        self.decayed = set()
        #: (SimulatedCrash, acked writes so far, RecoveryReport) per crash
        self.crashes = []
        self.acked_writes = 0

    def _set(self, key, value):
        if value is None:
            self.model.pop(key, None)
        else:
            self.model[key] = value

    def _run(self, call, write=None):
        """Run one store call. ``write`` is the ``(key, value)`` it writes,
        if any: acked when the call returns. A crash is followed by
        recovery and the checks of what it may have rolled back."""
        store = self.store
        flushes = store.stats.flushes
        dropped = self.storage.stats.dropped_syncs
        if write is not None:
            key, value = write
            before = self.doubt.get(key, [self.model.get(key)])
            self.history.setdefault(key, {None}).add(value)
        try:
            call()
        except SimulatedCrash as crash:
            interrupted = {}
            if store.stats.flushes > flushes:
                # the flush that covers every ack so far has committed
                self.doubt = {}
                if write is not None:
                    interrupted[key] = [value]
            elif write is not None:
                # torn before its sync: old; acked, then crashed: old or new
                interrupted[key] = (
                    before if crash.site == APPEND_SITE else before + [value]
                )
            cause = f"a crash at {crash.site} (hit {crash.hit})"
            self._recover(cause, interrupted)
            self.crashes.append(
                (crash, self.acked_writes, self.store.last_recovery)
            )
            return
        if write is not None:
            self.acked_writes += 1
            self._set(key, value)
            if self.storage.stats.dropped_syncs > dropped:
                self.doubt[key] = before + [value]
            else:
                self.doubt.pop(key, None)
                self.damaged.discard(key)
        # a flush (after a reopen, the reopened store's own) covers every
        # ack so far
        if self.store.stats.flushes > (flushes if self.store is store else 0):
            self.doubt = {}

    def _recover(self, cause, interrupted):
        """Disarm, cut the power, reopen. Each key the crash may have
        rolled back must read as one of its allowed values, which the
        model then adopts."""
        self.storage.crash_injector.disarm()
        self.storage.crash()
        self.store = KVStore.open(self.storage, **self.STORE_KWARGS)
        for key, allowed in {**self.doubt, **interrupted}.items():
            if key in self.damaged:
                continue  # held to its history by the invariants
            got = self.store.get(key)
            assert got in allowed, (
                f"after {cause} {key!r} read {got!r}, not one of {allowed!r}"
            )
            self._set(key, got)
        self.doubt = {}

    def _tables(self):
        return [t for level in self.store.levels for t in level if t.block_count]

    @rule(key=_keys, value=_values)
    def put(self, key, value):
        self._run(lambda: self.store.put(key, value), (key, value))

    @rule(key=_keys)
    def delete(self, key):
        self._run(lambda: self.store.delete(key), (key, None))

    @rule()
    def flush(self):
        self._run(self.store.flush)

    @rule()
    def reopen(self):
        def reopen():
            self.store = KVStore.open(self.storage, **self.STORE_KWARGS)

        self._run(reopen)

    @rule(site=st.sampled_from(CRASH_SITES), hit=st.integers(1, 2))
    def arm_crash(self, site, hit):
        """Die at the ``hit``-th visit to ``site`` from now."""
        self.storage.crash_injector = CrashInjector(site, hit)

    @rule()
    def power_cut(self):
        """The process dies between calls: every unsynced tail tears."""
        self._recover("a power cut", {})

    @rule(rate=st.sampled_from([0.0, 0.5, 1.0]))
    def lying_fsync(self, rate):
        plan = FaultPlan("lying-fsync", (FaultSpec(SYNC_SITE, "drop", rate),))
        self.storage.fault_injector = FaultInjector(plan, seed=self.storage.seed)

    @precondition(lambda self: self._tables())
    @rule(pick=st.integers(0, 1 << 16))
    def decay_block(self, pick):
        tables = self._tables()
        table = tables[pick % len(tables)]
        block = pick // len(tables) % table.block_count
        offset, length = table.block_spans[block]
        self.storage.decay(table.file_name, offset, bytes(length))
        self.decayed.add((table.file_name, block))
        low = table._index[block]
        high = table._index[block + 1] if block + 1 < table.block_count else None
        self.damaged.update(
            key for key in self.history
            if low <= key and (high is None or key < high)
        )

    @rule(key=_keys)
    def get_matches_model(self, key):
        got = self.store.get(key)
        if key in self.damaged:
            assert got in self.history[key]
        else:
            assert got == self.model.get(key)

    @invariant()
    def range_scan_matches_model(self):
        got = dict(self.store.scan_range(b"\x00", b"\xff" * 13))
        for key in self.damaged:
            assert got.pop(key, None) in self.history[key], key
        assert got == {
            key: value for key, value in self.model.items()
            if key not in self.damaged
        }
        # the scan read every block: each decayed block of a live table is
        # quarantined, and nothing else is
        live = {t.file_name for level in self.store.levels for t in level}
        assert self.store.quarantined_blocks == sum(
            name in live for name, __ in self.decayed
        )

    @invariant()
    def manifest_matches_levels(self):
        manifest = Manifest(self.storage)
        state = manifest.load()
        assert state.levels == [
            [table.file_name for table in level] for level in self.store.levels
        ]
        assert all(len(level) <= 1 for level in self.store.levels[1:])
        # no orphan outlives a commit or a recovery
        assert self.storage.list("sst-") == sorted(state.files())
        current = manifest.current_name()
        assert manifest.manifest_files() == ([current] if current else [])


def _seeded_mix(seed, ops):
    """The seeded put / overwrite / delete mix a crash cell replays, over a
    hot key space small enough that overwrites and tombstones collide."""
    rng = random.Random(f"kvstore-crash-workload:{seed}")
    for __ in range(ops):
        key = f"key-{rng.randrange(ops // 3 + 1):05d}".encode()
        if rng.random() < 0.15:
            yield key, None
        else:
            yield key, bytes(rng.getrandbits(8) for __ in range(rng.randrange(16, 160)))


def replay_cell(seed, site, hit, ops=220):
    """One crash cell through the machine's own rules: arm ``(site, hit)``,
    write the seeded mix until the crash fires and recovers (or the mix
    ends), then check the invariants. Returns the machine."""
    machine = KVStoreModel()
    machine.setup(seed=seed)
    machine.arm_crash(site=site, hit=hit)
    for key, value in _seeded_mix(seed, ops):
        if value is None:
            machine.delete(key=key)
        else:
            machine.put(key=key, value=value)
        if machine.crashes:
            break
    machine.range_scan_matches_model()
    machine.manifest_matches_levels()
    return machine


def replay_sweep(seed, hits):
    """Every ``(site, hit)`` cell with ``hit <= hits``, in site order."""
    return [
        replay_cell(seed, site, hit)
        for site in CRASH_SITES
        for hit in range(1, hits + 1)
    ]


def _fingerprint(machines):
    return [
        (crash.site, crash.hit, acked, recovery.wal_records_replayed,
         recovery.wal_bytes_replayed, recovery.sst_files,
         recovery.modeled_seconds)
        for machine in machines
        for crash, acked, recovery in machine.crashes
    ]


class TestCrashReplay:
    """The crash cells (seed 0, hits 1-3, the 220-op mix) still fire."""

    @pytest.mark.parametrize(
        "site,hit", [(site, hit) for site in CRASH_SITES for hit in (1, 2, 3)]
    )
    def test_cell_recovers(self, site, hit):
        machine = replay_cell(0, site, hit)
        [(crash, acked, recovery)] = machine.crashes
        assert (crash.site, crash.hit) == (site, hit)
        # the first append-site hit crashes before anything is acked;
        # every other cell has durable history behind it
        assert acked > 0 or (site, hit) == (APPEND_SITE, 1)
        if site == APPEND_SITE:
            # the torn batch was never acked, so it never replays
            assert recovery.wal_records_replayed <= acked
        if site in (COMPACT_SST_SITE, COMPACT_CLEANUP_SITE):
            # a compaction-era crash: tables survive it
            assert recovery.sst_files >= 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sweep_holds_across_seeds(self, seed):
        machines = replay_sweep(seed, hits=2)
        assert all(len(machine.crashes) == 1 for machine in machines)

    def test_sweep_is_deterministic(self):
        assert _fingerprint(replay_sweep(5, hits=2)) == _fingerprint(
            replay_sweep(5, hits=2)
        )

    def test_seed_changes_the_sweep(self):
        # another seed is another mix and other tear offsets, so the
        # replayed WAL byte counts cannot all coincide
        a = [row[4] for row in _fingerprint(replay_sweep(5, hits=1))]
        b = [row[4] for row in _fingerprint(replay_sweep(6, hits=1))]
        assert a != b


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


TestKVStoreModel = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)(KVStoreModel).TestCase
TestCacheModel = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)(CacheModel).TestCase
TestBlockCacheModel = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)(BlockCacheModel).TestCase

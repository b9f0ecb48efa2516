"""Cache server: typed item store with per-type dictionary compression."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.codecs.base import Compressor, get_codec
from repro.codecs.zstd.dictionary import CompressionDictionary, train_dictionary
from repro.codecs.base import CodecError, StageCounters
from repro.obs.instrument import record_cache_request, record_quarantine
from repro.obs.state import OBS_STATE
from repro.perfmodel.machine import DEFAULT_MACHINE
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.quarantine import QuarantinedBlock

#: bytes of each per-type dictionary ``train_type_dictionary`` trains
_DICTIONARY_SIZE = 8192


@dataclass
class CacheStats:
    """Server-side accounting: hit rate, bytes, compression work."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    raw_bytes: int = 0
    stored_bytes: int = 0
    network_bytes_served: int = 0
    compress_counters: StageCounters = field(default_factory=StageCounters)
    compress_seconds: float = 0.0
    # -- resilience accounting --
    #: items stored raw because the codec failed on them
    compress_failures: int = 0
    #: items stored raw because the circuit breaker was open
    raw_fallbacks: int = 0
    #: poisoned entries removed after failing client-side decompression
    corrupt_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def memory_ratio(self) -> float:
        """Effective compression ratio of resident items.

        Follows the ``RpcStats.wire_ratio`` convention: neutral 1.0 only
        when there has been no traffic at all; ``inf`` when raw bytes
        came in but zero bytes were stored (degenerate all-empty values).
        """
        if self.stored_bytes:
            return self.raw_bytes / self.stored_bytes
        return float("inf") if self.raw_bytes else 1.0


class CacheServer:
    """Memcached-style server that compresses each item individually.

    Items below ``min_compress_size`` are stored raw (compression overhead
    exceeds the saving). With ``use_dictionaries=True`` a per-type
    dictionary, trained on sample items, is used for both compression and
    the client's decompression.

    Resilience: an optional :class:`CircuitBreaker` guards the codec --
    while it is open every item is stored raw (the bicriteria trade: a
    failing compressor is swapped for the raw path), and a codec failure
    on one item degrades that item to raw instead of failing the ``set``.
    :meth:`quarantine` removes an entry a client found undecodable.
    """

    def __init__(
        self,
        codec: Optional[Compressor] = None,
        level: int = 3,
        use_dictionaries: bool = False,
        min_compress_size: int = 64,
        capacity_bytes: Optional[int] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.codec = codec if codec is not None else get_codec("zstd")
        self.level = level
        self.use_dictionaries = use_dictionaries
        self.min_compress_size = min_compress_size
        #: resident-memory budget; None = unbounded. Compression stretches
        #: this budget, which is the memory-TCO argument of the paper's
        #: introduction.
        self.capacity_bytes = capacity_bytes
        #: trips the codec to raw passthrough after repeated failures
        self.breaker = breaker
        self.dictionaries: Dict[str, CompressionDictionary] = {}
        #: key -> (type_name, compressed flag, stored bytes); LRU order
        self._store: "OrderedDict[bytes, Tuple[str, bool, bytes]]" = OrderedDict()
        self._resident_bytes = 0
        self.stats = CacheStats()

    # -- dictionary management -------------------------------------------------

    def train_type_dictionary(
        self, type_name: str, samples: Iterable[bytes]
    ) -> CompressionDictionary:
        """Train and install the dictionary for one item type."""
        dictionary = train_dictionary(samples, max_size=_DICTIONARY_SIZE)
        self.dictionaries[type_name] = dictionary
        return dictionary

    def dictionary_for(self, type_name: str) -> Optional[bytes]:
        if not self.use_dictionaries:
            return None
        dictionary = self.dictionaries.get(type_name)
        return dictionary.content if dictionary else None

    # -- item operations ----------------------------------------------------------

    def set(self, key: bytes, type_name: str, value: bytes) -> None:
        """Store an item, compressing it individually if worthwhile.

        Codec failures never fail the ``set``: the item falls back to raw
        storage and the breaker (if any) accumulates the failure.
        """
        self.stats.raw_bytes += len(value)
        if len(value) < self.min_compress_size:
            self._insert(bytes(key), type_name, False, bytes(value))
            return
        if self.breaker is not None and not self.breaker.allow():
            self.stats.raw_fallbacks += 1
            self._insert(bytes(key), type_name, False, bytes(value))
            if OBS_STATE.enabled:
                record_cache_request("set", "raw_fallback", len(value))
            return
        dictionary = self.dictionary_for(type_name)
        try:
            result = self.codec.compress(value, self.level, dictionary=dictionary)
        except CodecError:
            self.stats.compress_failures += 1
            if self.breaker is not None:
                self.breaker.record_failure()
            self._insert(bytes(key), type_name, False, bytes(value))
            if OBS_STATE.enabled:
                record_cache_request("set", "compress_failed", len(value))
            return
        if self.breaker is not None:
            self.breaker.record_success()
        self.stats.compress_counters.merge(result.counters)
        compress_seconds = DEFAULT_MACHINE.compress_seconds(
            self.codec.name, result.counters
        )
        self.stats.compress_seconds += compress_seconds
        if self.breaker is not None:
            # modeled compression time moves the breaker's clock, so a
            # cooldown expressed in seconds means modeled seconds
            self.breaker.clock.advance(compress_seconds)
        if len(result.data) < len(value):
            self._insert(bytes(key), type_name, True, result.data)
        else:
            self._insert(bytes(key), type_name, False, bytes(value))
        if OBS_STATE.enabled:
            record_cache_request("set", "stored", len(value))

    def _insert(self, key: bytes, type_name: str, compressed: bool, payload: bytes) -> None:
        """Store one entry, evicting LRU items past the capacity budget."""
        if key in self._store:
            self._resident_bytes -= len(self._store.pop(key)[2])
        self._store[key] = (type_name, compressed, payload)
        self._resident_bytes += len(payload)
        self.stats.stored_bytes += len(payload)
        if self.capacity_bytes is not None:
            while self._resident_bytes > self.capacity_bytes and len(self._store) > 1:
                __, (__, __, evicted) = self._store.popitem(last=False)
                self._resident_bytes -= len(evicted)
                self.stats.evictions += 1

    def get_compressed(self, key: bytes) -> Optional[Tuple[str, bool, bytes]]:
        """Serve the stored (possibly compressed) bytes -- no server decompress.

        This is the property the paper highlights: the server ships the
        compressed item straight to the client, saving server CPU and
        network bytes.
        """
        key = bytes(key)
        entry = self._store.get(key)
        if entry is None:
            self.stats.misses += 1
            if OBS_STATE.enabled:
                record_cache_request("get", "miss")
            return None
        self._store.move_to_end(key)  # LRU touch
        self.stats.hits += 1
        self.stats.network_bytes_served += len(entry[2])
        if OBS_STATE.enabled:
            record_cache_request("get", "hit", len(entry[2]))
        return entry

    def quarantine(
        self, key: bytes, reason: str = "failed verified-decompress"
    ) -> Optional[QuarantinedBlock]:
        """Evict a poisoned entry; returns the structured event (or None).

        Called by clients whose decompression of the served bytes raised
        :class:`~repro.codecs.base.CorruptDataError`: the entry is removed
        so the next get is an honest miss (and a re-fetch from the backing
        store), instead of every reader crashing on the same bytes.
        """
        key = bytes(key)
        entry = self._store.pop(key, None)
        if entry is None:
            return None
        self._resident_bytes -= len(entry[2])
        self.stats.corrupt_evictions += 1
        if OBS_STATE.enabled:
            record_quarantine("cache.server")
        return QuarantinedBlock(
            source="cache.server",
            identifier=repr(key),
            codec=self.codec.name,
            reason=reason,
        )

    # -- fault-injection support ----------------------------------------------

    def stored_keys(self) -> Tuple[bytes, ...]:
        """Every resident key, LRU order (coldest first)."""
        return tuple(self._store)

    def stored_entry(self, key: bytes) -> Tuple[str, bool, bytes]:
        """One entry's (type, compressed flag, stored bytes) -- no stats,
        no LRU touch, unlike :meth:`get_compressed`."""
        return self._store[bytes(key)]

    def replace_stored(self, key: bytes, payload: bytes) -> None:
        """Overwrite one entry's stored bytes in place (media-decay injection).

        Used by :func:`repro.faults.scrub_cache`; the compressed flag is
        kept, so a damaged compressed entry exercises the client's
        verified-decompress path on its next get.
        """
        key = bytes(key)
        type_name, compressed, old = self._store[key]
        self._store[key] = (type_name, compressed, bytes(payload))
        self._resident_bytes += len(payload) - len(old)

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held in memory (post-compression)."""
        return self._resident_bytes

    def __contains__(self, key: bytes) -> bool:
        return bytes(key) in self._store

    def __len__(self) -> int:
        return len(self._store)

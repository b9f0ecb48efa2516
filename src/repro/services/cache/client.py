"""Cache client: decompresses served items on the client side."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.codecs.base import CodecError, CorruptDataError, StageCounters
from repro.obs.instrument import record_cache_request
from repro.obs.state import OBS_STATE
from repro.perfmodel import DEFAULT_MACHINE
from repro.services.cache.server import CacheServer


@dataclass
class ClientStats:
    """Client-side decompression work (decentralized, as the paper notes)."""

    gets: int = 0
    decompress_counters: StageCounters = field(default_factory=StageCounters)
    decompress_seconds: float = 0.0
    bytes_received: int = 0
    bytes_decoded: int = 0
    #: served items that failed decompression (now quarantined server-side)
    decode_failures: int = 0


class CacheClient:
    """Client that receives compressed items and decompresses locally.

    "The client has to decompress the data, but the load is less centralized
    as each cache machine serves hundreds to thousands of clients"
    (Section IV-C).
    """

    def __init__(self, server: CacheServer) -> None:
        self.server = server
        self.stats = ClientStats()

    def get(self, key: bytes) -> Optional[bytes]:
        """Fetch and (if needed) decompress one item.

        Verified-decompress: a served item that fails validation is a
        *recoverable* event, not a crash -- the poisoned entry is
        quarantined server-side and the get reports a miss, so the caller
        re-fetches from the backing store exactly as for a cold key.
        """
        self.stats.gets += 1
        entry = self.server.get_compressed(key)
        if entry is None:
            if OBS_STATE.enabled:
                record_cache_request("client_get", "miss")
            return None
        type_name, compressed, payload = entry
        self.stats.bytes_received += len(payload)
        if OBS_STATE.enabled:
            record_cache_request("client_get", "hit", len(payload))
        if not compressed:
            self.stats.bytes_decoded += len(payload)
            return payload
        dictionary = self.server.dictionary_for(type_name)
        try:
            result = self._decompress_verified(payload, dictionary)
        except CorruptDataError as exc:
            # the bytes themselves are poisoned: quarantine server-side so
            # the next get is an honest miss instead of a repeat crash
            self.stats.decode_failures += 1
            self.server.quarantine(key, reason=str(exc))
            if OBS_STATE.enabled:
                record_cache_request("client_get", "corrupt")
            return None
        except CodecError:
            # transient decoder failure (not provably bad data): the entry
            # stays cached, this get degrades to a miss
            self.stats.decode_failures += 1
            if OBS_STATE.enabled:
                record_cache_request("client_get", "decode_error")
            return None
        self.stats.decompress_counters.merge(result.counters)
        self.stats.decompress_seconds += DEFAULT_MACHINE.decompress_seconds(
            self.server.codec.name, result.counters
        )
        self.stats.bytes_decoded += len(result.data)
        return result.data

    def _decompress_verified(self, payload: bytes, dictionary):
        """Decompress with one retry for transient (non-corrupt) failures."""
        try:
            return self.server.codec.decompress(payload, dictionary=dictionary)
        except CorruptDataError:
            raise
        except CodecError:
            return self.server.codec.decompress(payload, dictionary=dictionary)

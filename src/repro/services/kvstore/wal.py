"""Segmented, per-record-checksummed write-ahead log.

Record framing (fixed 8-byte header, then payload)::

    u32 LE payload length | u32 LE crc32(payload) | payload

Payload: ``uvarint batch seq | uvarint entry count | entries``, each
entry in the SST key/tombstone-flag/value varint framing — one record
per :meth:`KVStore.write_batch <repro.services.kvstore.db.KVStore>`
group, so a batch is acked by a single sync (group commit).

The log is a series of segments (``wal-000000.log``, ``wal-000001.log``,
…); an append that pushes the active segment past ``segment_bytes``
rotates to the next index. Replay walks segments in order and, at the
first record whose length or checksum doesn't verify, truncates that
segment at the last good boundary (*torn-tail truncation*) and moves on
to the next segment — tail records of an earlier segment can be torn by
a dropped sync followed by a crash, and later segments may still hold
acked batches. A torn record can never be an acked batch: the ack *is*
the successful sync, and :meth:`SimStorage.crash
<repro.services.kvstore.storage.SimStorage.crash>` tears strictly inside
the unsynced tail.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple
from zlib import crc32

from repro.codecs.base import CorruptDataError
from repro.codecs.varint import read_uvarint, write_uvarint
from repro.obs.instrument import record_torn_tail, record_wal_append, record_wal_replay
from repro.obs.state import OBS_STATE
from repro.services.kvstore.storage import SimStorage
from repro.services.kvstore.sst import decode_entries, encode_entry

_HEADER = struct.Struct("<II")

#: crash site visited after a record is appended but before it is synced:
#: the in-flight batch is unacked and must NOT survive recovery
APPEND_SITE = "kvstore.wal.append"

Entry = Tuple[bytes, Optional[bytes]]


@dataclass
class WalReplayResult:
    """What one replay pass recovered."""

    #: (batch seq, entries) in log order
    batches: List[Tuple[int, List[Entry]]] = field(default_factory=list)
    records: int = 0
    entries: int = 0
    bytes_replayed: int = 0
    torn_tails: int = 0
    segments: int = 0

    @property
    def max_seq(self) -> int:
        return max((seq for seq, __ in self.batches), default=0)


def _encode_batch(seq: int, items: List[Entry]) -> bytes:
    payload = bytearray()
    write_uvarint(payload, seq)
    write_uvarint(payload, len(items))
    for key, value in items:
        encode_entry(payload, key, value)
    return bytes(payload)


def _decode_batch(payload: bytes) -> Tuple[int, List[Entry]]:
    """A checksum-valid payload that is not ``seq | count | exactly count
    entries`` raises :class:`CorruptDataError`."""
    seq, pos = read_uvarint(payload, 0)
    count, pos = read_uvarint(payload, pos)
    entries = decode_entries(payload, pos)
    if len(entries) != count:
        raise CorruptDataError("WAL batch does not hold the entries it counts")
    return seq, entries


#: every segment file is ``wal-<index>.log``
_PREFIX = "wal-"


class WriteAheadLog:
    """The durable write path: group append, sync-to-ack, replay."""

    def __init__(self, storage: SimStorage, segment_bytes: int = 1 << 16) -> None:
        self.storage = storage
        self.segment_bytes = segment_bytes
        self._index = self._highest_index() + 1 if self.segments() else 0

    # -- layout ------------------------------------------------------------

    def segments(self) -> List[str]:
        return self.storage.list(_PREFIX)

    def _highest_index(self) -> int:
        highest = -1
        for name in self.segments():
            stem = name[len(_PREFIX) :].split(".", 1)[0]
            try:
                highest = max(highest, int(stem))
            except ValueError:
                continue
        return highest

    @property
    def active_segment(self) -> str:
        return f"{_PREFIX}{self._index:06d}.log"

    # -- write path --------------------------------------------------------

    def append(self, seq: int, items: List[Entry]) -> int:
        """Frame, append, and sync one batch; returns framed bytes.

        The sync is the ack: callers may only report the batch durable
        after this returns. A crash between append and sync (the
        :data:`APPEND_SITE` point) leaves a torn, unacked record.
        """
        payload = _encode_batch(seq, items)
        frame = _HEADER.pack(len(payload), crc32(payload)) + payload
        segment = self.active_segment
        self.storage.append(segment, frame)
        self.storage.crash_point(APPEND_SITE)
        self.storage.sync(segment)
        if OBS_STATE.enabled:
            record_wal_append(1, len(frame))
        if self.storage.size(segment) >= self.segment_bytes:
            self._index += 1
        return len(frame)

    # -- recovery ----------------------------------------------------------

    def replay(self) -> WalReplayResult:
        """Parse every segment, truncating each torn tail at the last
        good record boundary; returns the recovered batches in order."""
        result = WalReplayResult()
        for name in self.segments():
            result.segments += 1
            data = self.storage.read(name)
            pos = 0
            while pos < len(data):
                if pos + _HEADER.size > len(data):
                    self._truncate_torn(name, pos, result)
                    break
                length, checksum = _HEADER.unpack_from(data, pos)
                body_start = pos + _HEADER.size
                if body_start + length > len(data):
                    self._truncate_torn(name, pos, result)
                    break
                payload = data[body_start : body_start + length]
                if crc32(payload) != checksum:
                    self._truncate_torn(name, pos, result)
                    break
                try:
                    seq, entries = _decode_batch(payload)
                except CorruptDataError:
                    self._truncate_torn(name, pos, result)
                    break
                result.batches.append((seq, entries))
                result.records += 1
                result.entries += len(entries)
                result.bytes_replayed += _HEADER.size + length
                pos = body_start + length
        # recovery always writes into a fresh segment past everything seen
        self._index = self._highest_index() + 1
        if OBS_STATE.enabled:
            record_wal_replay(result.records, result.bytes_replayed)
        return result

    def _truncate_torn(self, name: str, pos: int, result: WalReplayResult) -> None:
        self.storage.truncate(name, pos)
        result.torn_tails += 1
        if OBS_STATE.enabled:
            record_torn_tail(name)

    # -- pruning -----------------------------------------------------------

    def prune(self) -> None:
        """Drop every segment (called after a flush made them obsolete:
        the manifest's ``wal_cutoff`` covers all appended batches)."""
        for name in self.segments():
            self.storage.delete(name)
        self._index += 1

"""Versioned manifest: the LSM's durable level state, swapped atomically.

A manifest file (``manifest-000007.mf``) is a sequence of checksummed
records — one header, then one *edit* per SST file — that rebuild a
:class:`ManifestState` from empty. Every commit serializes the complete
next state into a **new** file via the storage's atomic ``write_file``,
then swaps the ``CURRENT`` pointer to it. A crash therefore sees either
the old manifest or the new one, never a blend: mid-flush and
mid-compaction crashes can leave orphan SST/manifest *files*, but the
visible level state is always one committed version. Recovery garbage
collects the orphans.

Record framing matches the WAL (u32 LE length | u32 LE crc32 | payload);
a manifest that fails any checksum, or whose checksummed records do not
parse (an empty record, a cut-off varint, a file name that is not text, an
edit for a level the header does not declare), is rejected wholesale as
:class:`ManifestCorruptError` and recovery falls back to the newest older
manifest that parses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional
from zlib import crc32

from repro.codecs.base import CorruptDataError
from repro.codecs.varint import read_uvarint, write_uvarint
from repro.services.kvstore.storage import SimStorage

_HEADER = struct.Struct("<II")

#: crash site between writing the new manifest file and swapping CURRENT
SWAP_SITE = "kvstore.manifest.swap"
#: crash site between the swap and deleting the superseded manifest file
CLEANUP_SITE = "kvstore.manifest.cleanup"

_KIND_HEADER = 0
_KIND_ADD = 1


class ManifestCorruptError(ValueError):
    """No manifest file parsed cleanly."""


@dataclass
class ManifestState:
    """One committed version of the LSM's durable shape."""

    version: int = 0
    #: highest WAL batch seq whose effects are captured in the SSTs below;
    #: replay skips batches with seq <= wal_cutoff
    wal_cutoff: int = 0
    #: next SST file id to allocate (monotonic across crashes)
    next_file_id: int = 0
    #: SST file names per level; level 0 is newest-first
    levels: List[List[str]] = field(default_factory=lambda: [[]])

    def files(self) -> List[str]:
        return [name for level in self.levels for name in level]

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        header = bytearray()
        write_uvarint(header, self.version)
        write_uvarint(header, self.wal_cutoff)
        write_uvarint(header, self.next_file_id)
        write_uvarint(header, len(self.levels))
        _write_record(out, _KIND_HEADER, bytes(header))
        for level, names in enumerate(self.levels):
            for name in names:
                edit = bytearray()
                write_uvarint(edit, level)
                encoded = name.encode()
                write_uvarint(edit, len(encoded))
                edit.extend(encoded)
                _write_record(out, _KIND_ADD, bytes(edit))
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ManifestState":
        state: Optional[ManifestState] = None
        pos = 0
        while pos < len(data):
            if pos + _HEADER.size > len(data):
                raise ManifestCorruptError("truncated manifest record header")
            length, checksum = _HEADER.unpack_from(data, pos)
            body_start = pos + _HEADER.size
            payload = data[body_start : body_start + length]
            if len(payload) != length or crc32(payload) != checksum:
                raise ManifestCorruptError("manifest record checksum mismatch")
            if not payload:
                # eight zero bytes are a valid frame: crc32(b"") == 0
                raise ManifestCorruptError("empty manifest record")
            kind = payload[0]
            body = payload[1:]
            try:
                if kind == _KIND_HEADER:
                    version, p = read_uvarint(body, 0)
                    wal_cutoff, p = read_uvarint(body, p)
                    next_file_id, p = read_uvarint(body, p)
                    level_count, p = read_uvarint(body, p)
                    state = cls(
                        version=version,
                        wal_cutoff=wal_cutoff,
                        next_file_id=next_file_id,
                        levels=[[] for __ in range(max(1, level_count))],
                    )
                elif kind == _KIND_ADD:
                    if state is None:
                        raise ManifestCorruptError("edit before manifest header")
                    level, p = read_uvarint(body, 0)
                    name_len, p = read_uvarint(body, p)
                    name = body[p : p + name_len]
                    if len(name) != name_len:
                        raise ManifestCorruptError("short manifest file name")
                    if level >= len(state.levels):
                        raise ManifestCorruptError(
                            f"edit for level {level}, header declares "
                            f"{len(state.levels)}"
                        )
                    state.levels[level].append(name.decode())
                else:
                    raise ManifestCorruptError(
                        f"unknown manifest record kind {kind}"
                    )
            except (CorruptDataError, UnicodeDecodeError) as exc:
                # a checksum-valid record that does not parse
                raise ManifestCorruptError(f"malformed manifest record: {exc}") from exc
            pos = body_start + length
        if state is None:
            raise ManifestCorruptError("empty manifest")
        return state


def _write_record(out: bytearray, kind: int, body: bytes) -> None:
    payload = bytes([kind]) + body
    out.extend(_HEADER.pack(len(payload), crc32(payload)))
    out.extend(payload)


class Manifest:
    """Storage-side manager: load the CURRENT state, commit new versions."""

    POINTER = "CURRENT"

    def __init__(self, storage: SimStorage) -> None:
        self.storage = storage

    def _name(self, version: int) -> str:
        return f"manifest-{version:06d}.mf"

    def manifest_files(self) -> List[str]:
        return self.storage.list("manifest-")

    def current_name(self) -> Optional[str]:
        return self.storage.get_pointer(self.POINTER)

    def load(self) -> ManifestState:
        """The committed state: CURRENT's target, or the newest older
        manifest that parses, or empty if none exists."""
        candidates: List[str] = []
        current = self.current_name()
        if current is not None:
            candidates.append(current)
        for name in sorted(self.manifest_files(), reverse=True):
            if name not in candidates:
                candidates.append(name)
        for name in candidates:
            if not self.storage.exists(name):
                continue
            try:
                return ManifestState.from_bytes(self.storage.read(name))
            except ManifestCorruptError:
                continue
        if candidates and any(self.storage.exists(n) for n in candidates):
            raise ManifestCorruptError("no manifest file parsed cleanly")
        return ManifestState()

    def commit(self, state: ManifestState) -> None:
        """Durably install ``state`` as CURRENT (atomic swap).

        Writes ``state`` to the file named by its version, crosses the
        :data:`SWAP_SITE` crash point, swaps ``CURRENT``, crosses
        :data:`CLEANUP_SITE`, then deletes superseded manifest files.
        """
        name = self._name(state.version)
        self.storage.write_file(name, state.to_bytes())
        self.storage.crash_point(SWAP_SITE)
        self.storage.set_pointer(self.POINTER, name)
        self.storage.crash_point(CLEANUP_SITE)
        for stale in self.manifest_files():
            if stale != name:
                self.storage.delete(stale)

    def collect_garbage(self, state: ManifestState) -> List[str]:
        """Delete files no committed state references (crash orphans):
        manifest files other than the one ``state`` was loaded from, which
        CURRENT then names, and unreferenced SST files. Returns the
        deleted names."""
        loaded = self._name(state.version)
        if self.storage.exists(loaded):
            self.storage.set_pointer(self.POINTER, loaded)
        live = set(state.files())
        removed: List[str] = []
        for name in self.manifest_files():
            if name != loaded:
                self.storage.delete(name)
                removed.append(name)
        for name in self.storage.list("sst-"):
            if name not in live:
                self.storage.delete(name)
                removed.append(name)
        return removed

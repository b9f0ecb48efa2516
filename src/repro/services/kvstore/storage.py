"""Simulated storage for the LSM: append, sync, atomic install.

The store never touches bytes directly — it talks to a
:class:`SimStorage`, whose contract encodes exactly the durability
semantics real filesystems give an LSM engine:

- ``append`` buffers bytes; they are **not durable** until ``sync``.
- ``sync`` makes a file's buffered tail durable — unless the storage's
  fault injector fires a ``drop`` at the sync site (a lying-fsync disk:
  the call returns success, the bytes die with the power).
- ``write_file`` is write-temp + rename + fsync collapsed into one
  atomic, immediately-durable install (SST files, manifest files).
- ``set_pointer`` atomically repoints a name (the ``CURRENT`` manifest
  pointer); a pointer never refers to a half-written file.
- ``crash_point`` visits a named site on the attached
  :class:`~repro.faults.crash.CrashInjector`, which may raise
  :class:`~repro.faults.crash.SimulatedCrash`.

It implements this in memory with a durable/pending split per file.
:meth:`SimStorage.crash` models the power cut: pending
bytes are *torn* — each file keeps a strictly-partial, seeded prefix of
its unsynced tail — so a record that was appended but never synced
always fails its checksum on replay. Everything is a pure function of
``(seed, crash index, file name)``, so one seed reproduces one crash.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults.crash import CrashInjector

#: fault-plan site consulted on every WAL sync (kind ``drop`` = lost
#: fsync). Deliberately outside both the ``kvstore.storage`` prefix (whose
#: bit-flip specs target at-rest blocks) and the ``kvstore.durable`` prefix
#: (whose ``crash`` spec is consulted once per chaos op), so each spec's
#: RNG stream sees only its own opportunities.
SYNC_SITE = "kvstore.sync"


@dataclass
class StorageStats:
    """Byte and call accounting for one storage."""

    syncs: int = 0
    dropped_syncs: int = 0
    crashes: int = 0


class SimStorage:
    """In-memory storage with seeded torn-write/drop-sync/crash faults.

    ``fault_injector`` (a :class:`repro.faults.FaultInjector`) drives
    dropped syncs at :data:`SYNC_SITE`; ``crash_injector`` (a
    :class:`repro.faults.CrashInjector`) drives crash points. Both are
    optional — without them SimStorage is a well-behaved disk.
    """

    def __init__(
        self,
        seed: int = 0,
        fault_injector=None,
        crash_injector: Optional[CrashInjector] = None,
    ) -> None:
        self.seed = seed
        self.fault_injector = fault_injector
        self.crash_injector = crash_injector
        #: synced (power-safe) bytes per file
        self._durable: Dict[str, bytearray] = {}
        #: appended-but-unsynced tail per file
        self._pending: Dict[str, bytearray] = {}
        self._pointers: Dict[str, str] = {}
        self.stats = StorageStats()

    # -- the durability contract ------------------------------------------

    def append(self, name: str, data: bytes) -> None:
        self._pending.setdefault(name, bytearray()).extend(data)
        self._durable.setdefault(name, bytearray())

    def sync(self, name: str) -> bool:
        """Make buffered appends durable. Returns False on a dropped sync."""
        self.stats.syncs += 1
        if self.fault_injector is not None and self.fault_injector.should(
            SYNC_SITE, "drop"
        ):
            # lying fsync: report success, leave the tail volatile
            self.stats.dropped_syncs += 1
            return False
        pending = self._pending.get(name)
        if pending:
            self._durable.setdefault(name, bytearray()).extend(pending)
            pending.clear()
        return True

    def read(self, name: str) -> bytes:
        if name not in self._durable and name not in self._pending:
            raise FileNotFoundError(name)
        # live readers see durable + pending, like a page cache
        return bytes(self._durable.get(name, b"")) + bytes(
            self._pending.get(name, b"")
        )

    def view(self, name: str) -> memoryview:
        """A read-only view, not a copy, of a file :meth:`write_file`
        installed (never appended to, so the view never blocks a resize)."""
        if name not in self._durable:
            raise FileNotFoundError(name)
        return memoryview(self._durable[name]).toreadonly()

    def size(self, name: str) -> int:
        if name not in self._durable and name not in self._pending:
            raise FileNotFoundError(name)
        return len(self._durable.get(name, b"")) + len(
            self._pending.get(name, b"")
        )

    def exists(self, name: str) -> bool:
        return name in self._durable or name in self._pending

    def truncate(self, name: str, length: int) -> None:
        if not self.exists(name):
            raise FileNotFoundError(name)
        data = bytearray(self.read(name)[:length])
        self._durable[name] = data
        self._pending.pop(name, None)

    def delete(self, name: str) -> None:
        self._durable.pop(name, None)
        self._pending.pop(name, None)

    def list(self, prefix: str = "") -> List[str]:
        names = set(self._durable) | set(self._pending)
        return sorted(n for n in names if n.startswith(prefix))

    def write_file(self, name: str, data: bytes) -> None:
        """Atomic durable install (tmp + rename + fsync)."""
        self._durable[name] = bytearray(data)
        self._pending.pop(name, None)

    def set_pointer(self, name: str, target: str) -> None:
        self._pointers[name] = target

    def get_pointer(self, name: str) -> Optional[str]:
        return self._pointers.get(name)

    # -- fault machinery ----------------------------------------------------

    def decay(self, name: str, offset: int, data: bytes) -> None:
        """Media decay: overwrite bytes at ``offset`` in place, at the same
        length, so every :meth:`view` of the file sees them."""
        stored = self._durable.get(name)
        if stored is None:
            raise FileNotFoundError(name)
        if offset < 0 or offset + len(data) > len(stored):
            raise ValueError("decay must stay inside the file")
        stored[offset : offset + len(data)] = data

    def crash_point(self, site: str) -> None:
        """Visit a named crash site (no-op unless an injector is armed)."""
        if self.crash_injector is not None:
            self.crash_injector.reach(site)

    def crash(self) -> None:
        """The power cut: tear every unsynced tail at a seeded byte.

        Each file with pending bytes keeps a strictly-partial prefix of
        that tail (``0 <= k < len(pending)``), so an in-flight record can
        never survive intact — its checksum must fail on replay. Durable
        bytes and pointers are untouched. The tear offset is a pure
        function of ``(seed, crash index, file name)``.
        """
        self.stats.crashes += 1
        for name in sorted(self._pending):
            pending = self._pending[name]
            if not pending:
                continue
            rng = random.Random(
                f"storage-tear:{self.seed}:{self.stats.crashes}:{name}"
            )
            k = rng.randint(0, len(pending) - 1)
            self._durable.setdefault(name, bytearray()).extend(pending[:k])
        self._pending = {}

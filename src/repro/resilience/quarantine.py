"""Structured records for data poisoned by corruption.

When verified-decompress catches a :class:`CorruptDataError` on a read
path, the damaged unit (SST block, cache item) is *quarantined*: removed
from service and reported as a structured event rather than an unhandled
exception. Managed Compression keeps old dictionary versions so "blobs
compressed under older dictionaries remain decodable" (paper §II-B);
quarantine is the analogous contract for payloads that are no longer
decodable under any dictionary -- the failure is contained, named, and
countable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class QuarantinedBlock:
    """One unit of data removed from service after failing to decode."""

    #: which subsystem quarantined it, e.g. ``"kvstore.sst"``, ``"cache.server"``
    source: str
    #: human-readable unit id (block index, cache key repr, page number)
    identifier: str
    #: codec that failed to decode the unit
    codec: str
    #: what the decoder reported
    reason: str


@dataclass
class QuarantineLog:
    """Append-only collection of quarantine events with per-source counts."""

    events: List[QuarantinedBlock] = field(default_factory=list)

    def add(self, event: QuarantinedBlock) -> None:
        self.events.append(event)

    def count(self, source: str = "") -> int:
        """Events from ``source`` (prefix match); all events when empty."""
        if not source:
            return len(self.events)
        return sum(
            1
            for event in self.events
            if event.source == source or event.source.startswith(source + ".")
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

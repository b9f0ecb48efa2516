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

from dataclasses import dataclass


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

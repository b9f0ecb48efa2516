"""The crash harness: seeded crash-point sweep + the recovery invariant.

:func:`run_crash_sweep` drives a durable :class:`KVStore` through a
seeded workload, killing it at every registered crash site in turn
(:data:`CRASH_SITES`), reopening from the surviving storage image, and
checking the **recovery invariant** after each reopen:

1. every *acked* write is readable with its latest value (a tombstone
   reads as absent);
2. the *in-flight* write — the batch the crash interrupted — must be
   absent if the crash hit before its WAL sync
   (:data:`~repro.services.kvstore.wal.APPEND_SITE`), and must read as
   either its old or its new state at any later site (the batch was
   already acked by the time flush/compaction/manifest work crashed);
3. no partially-compacted level state: a full ``scan_range`` equals the
   expected live set exactly (nothing resurrects, nothing vanishes), and
   every level past 0 holds at most one run.

Everything is a pure function of ``(seed, site, hit)``, so one failing
cell is one reproducible command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.crash import CrashInjector, CrashPlan, SimulatedCrash
from repro.services.kvstore import manifest as manifest_mod
from repro.services.kvstore import wal as wal_mod
from repro.services.kvstore.db import (
    COMPACT_CLEANUP_SITE,
    COMPACT_SST_SITE,
    FLUSH_CLEANUP_SITE,
    FLUSH_SST_SITE,
    KVStore,
    RecoveryReport,
)
from repro.services.kvstore.storage import SimStorage

#: every crash site the durable write path crosses, in path order
CRASH_SITES: Tuple[str, ...] = (
    wal_mod.APPEND_SITE,
    FLUSH_SST_SITE,
    manifest_mod.SWAP_SITE,
    manifest_mod.CLEANUP_SITE,
    FLUSH_CLEANUP_SITE,
    COMPACT_SST_SITE,
    COMPACT_CLEANUP_SITE,
)


class RecoveryInvariantError(AssertionError):
    """The recovery invariant failed after a crash-reopen."""


@dataclass
class CrashCell:
    """One sweep cell: crash at (site, hit) under one seed."""

    site: str
    hit: int
    crashed: bool
    acked_writes: int
    recovery: Optional[RecoveryReport] = None


@dataclass
class CrashSweepResult:
    """Outcome of one full sweep."""

    seed: int
    cells: List[CrashCell] = field(default_factory=list)

    @property
    def crashes(self) -> int:
        return sum(1 for cell in self.cells if cell.crashed)

    @property
    def sites_hit(self) -> List[str]:
        return sorted({cell.site for cell in self.cells if cell.crashed})


def _workload(seed: int, ops: int) -> List[Tuple[bytes, Optional[bytes]]]:
    """A seeded put/overwrite/delete mix over a small hot key space —
    small enough that overwrites and tombstones actually collide."""
    rng = random.Random(f"kvstore-crash-workload:{seed}")
    items: List[Tuple[bytes, Optional[bytes]]] = []
    for i in range(ops):
        key = f"key-{rng.randrange(ops // 3 + 1):05d}".encode()
        if rng.random() < 0.15:
            items.append((key, None))
        else:
            value = bytes(rng.getrandbits(8) for __ in range(rng.randrange(16, 160)))
            items.append((key, value))
    return items


#: a small store, so a short workload reaches flush and compaction
_STORE_KWARGS = {
    "memtable_bytes": 1 << 11,
    "level0_table_limit": 2,
    "wal_segment_bytes": 1 << 12,
    "block_cache_bytes": None,
}


def verify_recovery(
    store: KVStore,
    acked: Dict[bytes, Optional[bytes]],
    in_flight: Optional[Tuple[bytes, Optional[bytes]]],
    pre_crash: Optional[bytes],
    site: str,
) -> None:
    """Assert the recovery invariant; raises :class:`RecoveryInvariantError`.

    ``acked`` maps every acked key to its latest acked value (None =
    tombstone). ``in_flight`` is the interrupted (key, value) write, with
    ``pre_crash`` its last *acked* value, when the crash interrupted a
    write call.
    """
    in_flight_key = in_flight[0] if in_flight else None
    for key, expected in acked.items():
        if key == in_flight_key and site != wal_mod.APPEND_SITE:
            continue  # checked against {old, new} below
        got = store.get(key)
        if got != expected:
            raise RecoveryInvariantError(
                f"acked write lost at {site}: key={key!r} "
                f"expected={expected!r} got={got!r}"
            )
    if in_flight is not None:
        key, new_value = in_flight
        got = store.get(key)
        if site == wal_mod.APPEND_SITE:
            # crash before the sync: the batch was never acked and its WAL
            # record is torn — it must NOT resurrect
            if got != pre_crash:
                raise RecoveryInvariantError(
                    f"unacked write resurrected at {site}: key={key!r} "
                    f"got={got!r} expected pre-crash {pre_crash!r}"
                )
        else:
            # the batch was acked before flush/compaction/manifest work
            # crashed: it must read as exactly old or new, nothing else
            if got != new_value and got != pre_crash:
                raise RecoveryInvariantError(
                    f"in-flight write mangled at {site}: key={key!r} "
                    f"got={got!r} not in {{ {pre_crash!r}, {new_value!r} }}"
                )
    # no partial level state: the full live set matches expectations
    expected_live = {
        key: value
        for key, value in acked.items()
        if value is not None and key != in_flight_key
    }
    if in_flight is not None:
        key, new_value = in_flight
        got = store.get(key)
        if got is not None:
            expected_live[key] = got
    scanned = dict(store.scan_range(b"", b"\xff" * 8))
    if scanned != expected_live:
        ghosts = sorted(set(scanned) - set(expected_live))
        missing = sorted(set(expected_live) - set(scanned))
        raise RecoveryInvariantError(
            f"partial level state visible at {site}: "
            f"ghost keys {ghosts[:5]!r}, missing keys {missing[:5]!r}"
        )
    for level, tables in enumerate(store.levels[1:], start=1):
        if len(tables) > 1:
            raise RecoveryInvariantError(
                f"level {level} holds {len(tables)} runs after recovery"
            )


def run_crash_cell(
    seed: int,
    site: str,
    hit: int,
    ops: int = 220,
) -> CrashCell:
    """Run the workload with one armed crash point, reopen, verify."""
    injector = CrashInjector(CrashPlan.single(site, hit))
    storage = SimStorage(seed=seed, crash_injector=injector)
    store = KVStore(storage=storage, **_STORE_KWARGS)
    acked: Dict[bytes, Optional[bytes]] = {}
    in_flight: Optional[Tuple[bytes, Optional[bytes]]] = None
    pre_crash: Optional[bytes] = None
    crashed = False
    for key, value in _workload(seed, ops):
        in_flight = (key, value)
        pre_crash_value = acked.get(key)
        try:
            if value is None:
                store.delete(key)
            else:
                store.put(key, value)
        except SimulatedCrash:
            crashed = True
            pre_crash = pre_crash_value
            break
        acked[key] = value
        in_flight = None
    cell = CrashCell(
        site=site, hit=hit, crashed=crashed, acked_writes=len(acked)
    )
    if not crashed:
        return cell
    injector.disarm()
    storage.crash()
    reopened = KVStore(storage=storage, **_STORE_KWARGS)
    cell.recovery = reopened.last_recovery
    verify_recovery(reopened, acked, in_flight, pre_crash, site)
    return cell


def run_crash_sweep(seed: int = 0, hits: int = 3) -> CrashSweepResult:
    """Sweep every (site, hit) cell; each crash must recover cleanly.

    Cells whose (site, hit) is never reached (e.g. the third compaction
    cleanup in a short workload) simply run to completion and count as
    non-crashing — the sweep asserts recovery wherever a crash fired.
    """
    result = CrashSweepResult(seed=seed)
    for site in CRASH_SITES:
        for hit in range(1, hits + 1):
            result.cells.append(run_crash_cell(seed, site, hit))
    return result

"""Deterministic crash injection: plans, points, and the injector.

A *crash point* is a named site in the durable write path ("the instant
after the SST file landed but before the manifest swap"). A
:class:`CrashPlan` declares which site dies at which visit, and a
:class:`CrashInjector` executes it: the Nth time the site is reached,
:class:`SimulatedCrash` is raised. The storage layer then models the
power cut (:meth:`SimStorage.crash
<repro.services.kvstore.storage.SimStorage.crash>` tears the unsynced
tail at a seeded byte), and the harness reopens the store and checks the
recovery invariant.

Everything is counted, nothing is random at this layer: a crash plan is
a pure function of ``(site, hit)``, so one failing sweep cell replays
exactly. Seed-driven *selection* of crash points (which site, which
visit) belongs to the caller — the chaos scenario draws them from its
:class:`~repro.faults.plan.FaultInjector` spec RNGs, the sweep
enumerates them exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class SimulatedCrash(RuntimeError):
    """The process died at a crash point. Never caught by the store
    itself — only the harness (or chaos scenario) may survive it."""

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"simulated crash at {site} (hit {hit})")
        self.site = site
        self.hit = hit


@dataclass(frozen=True)
class CrashPoint:
    """Die the ``hit``-th time execution reaches ``site`` (1-based)."""

    site: str
    hit: int = 1

    def __post_init__(self) -> None:
        if self.hit < 1:
            raise ValueError(f"hit must be >= 1, got {self.hit}")


@dataclass(frozen=True)
class CrashPlan:
    """A named set of crash points, armed together."""

    name: str
    points: Tuple[CrashPoint, ...]

    @staticmethod
    def single(site: str, hit: int = 1) -> "CrashPlan":
        """The one-cell plan the sweep iterates."""
        return CrashPlan(f"{site}#{hit}", (CrashPoint(site, hit),))

    @staticmethod
    def none() -> "CrashPlan":
        return CrashPlan("none", ())


class CrashInjector:
    """Counts visits per site and raises when a planned point is hit.

    ``disarm()`` turns the injector off — the harness calls it before
    reopening the store so recovery itself cannot re-crash (recovery
    crash coverage is expressed as separate plans against the recovered
    image, not by re-arming mid-recovery).
    """

    def __init__(self, plan: CrashPlan) -> None:
        self.plan = plan
        self.armed = True
        #: visits per site, including visits while disarmed
        self.reached: Dict[str, int] = {}
        #: the (site, hit) that actually fired, if any
        self.fired: Optional[Tuple[str, int]] = None

    def reach(self, site: str) -> None:
        """Record one visit; raise :class:`SimulatedCrash` if planned."""
        count = self.reached.get(site, 0) + 1
        self.reached[site] = count
        if not self.armed or self.fired is not None:
            return
        for point in self.plan.points:
            if point.site == site and point.hit == count:
                self.fired = (site, count)
                raise SimulatedCrash(site, count)

    def disarm(self) -> None:
        self.armed = False

    def arm_point(self, site: str, offset: int = 1) -> None:
        """Replace the plan with one point ``offset`` visits from now.

        The chaos scenario uses this to arm "die at the next flush"
        style points relative to the current visit counts.
        """
        hit = self.reached.get(site, 0) + offset
        self.plan = CrashPlan.single(site, hit)
        self.fired = None
        self.armed = True

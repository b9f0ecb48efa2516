"""Deterministic crash injection: one armed point and the injector.

A *crash point* is a named site in the durable write path ("the instant
after the SST file landed but before the manifest swap"). A
:class:`CrashInjector` holds at most one armed ``(site, hit)``: the
``hit``-th time the site is reached, :class:`SimulatedCrash` is raised.
The storage layer then models the power cut (:meth:`SimStorage.crash
<repro.services.kvstore.storage.SimStorage.crash>` tears the unsynced
tail at a seeded byte), and the caller reopens the store and checks what
survived.

Everything is counted, nothing is random at this layer: a crash is a pure
function of ``(site, hit)``, so one failing crash replays exactly.
Seed-driven *selection* of crash points (which site, which visit) belongs
to the caller — the chaos scenario draws them from its
:class:`~repro.faults.plan.FaultInjector` spec RNGs, the LSM model tests
from Hypothesis.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class SimulatedCrash(RuntimeError):
    """The process died at a crash point. Never caught by the store
    itself — only its caller (a test, the chaos scenario) may survive it."""

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"simulated crash at {site} (hit {hit})")
        self.site = site
        self.hit = hit


class CrashInjector:
    """Counts visits per site and raises at the one armed ``(site, hit)``.

    ``CrashInjector(site, hit)`` dies the ``hit``-th time (1-based)
    execution reaches ``site``; ``CrashInjector()`` holds no point.
    ``disarm()`` turns the injector off — callers disarm it before
    reopening the store so recovery itself cannot re-crash.
    """

    def __init__(self, site: Optional[str] = None, hit: int = 1) -> None:
        if hit < 1:
            raise ValueError(f"hit must be >= 1, got {hit}")
        #: visits per site, including visits while disarmed
        self.reached: Dict[str, int] = {}
        #: the one armed ``(site, hit)``, if any
        self.plan: Optional[Tuple[str, int]] = None if site is None else (site, hit)
        #: the (site, hit) that actually fired, if any
        self.fired: Optional[Tuple[str, int]] = None
        self.armed = site is not None

    def reach(self, site: str) -> None:
        """Record one visit; raise :class:`SimulatedCrash` if armed here."""
        count = self.reached.get(site, 0) + 1
        self.reached[site] = count
        if not self.armed or self.fired is not None:
            return
        if self.plan == (site, count):
            self.fired = (site, count)
            raise SimulatedCrash(site, count)

    def disarm(self) -> None:
        self.armed = False

    def arm_point(self, site: str) -> None:
        """Replace the armed point with the next visit to ``site``.

        The chaos scenario uses this to arm "die at the next flush" style
        points relative to the current visit counts.
        """
        self.plan = (site, self.reached.get(site, 0) + 1)
        self.fired = None
        self.armed = True

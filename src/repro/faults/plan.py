"""Fault plans and the deterministic, seed-driven injector.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries:
*at this site, this kind of fault fires with this probability*. The
:class:`FaultInjector` executes a plan: every spec draws from its own
:class:`random.Random` seeded with a stable string (``seed`` + site +
kind), so the full fault sequence is a pure function of ``(plan, seed,
sequence of opportunities)`` -- the property the chaos scorecard's
byte-identical-across-runs guarantee rests on.

Sites are hierarchical dotted names (``"rpc.wire"``,
``"codec.zstd.decompress"``, ``"kvstore.storage"``); a spec matches a
site exactly or as a dotted prefix, so ``site="codec"`` targets every
codec call.

Fault kinds:

==============  ========================================================
``bit_flip``    flip ``magnitude`` random bits in the payload
``truncate``    cut the payload short
``garbage``     append random bytes past the frame end
``drop``        drop the message on the wire (channel faults only)
``latency``     add ``magnitude`` seconds of modeled latency
``fail``        the codec call raises (simulated codec failure)
``slow``        the codec call takes ``magnitude`` extra modeled seconds
``dict_loss``   a dictionary version disappears (managed compression)
``crash``       the process dies at a seeded crash point (kvstore
                durability; see :mod:`repro.faults.crash`)
==============  ========================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs.instrument import record_fault_injected
from repro.obs.state import OBS_STATE

PAYLOAD_KINDS = ("bit_flip", "truncate", "garbage")
KINDS = PAYLOAD_KINDS + (
    "drop",
    "latency",
    "fail",
    "slow",
    "dict_loss",
    "crash",
    "node_loss",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: a kind firing at a site with a probability."""

    site: str
    kind: str
    rate: float
    #: kind-specific severity: bit count for ``bit_flip``, seconds for
    #: ``latency``/``slow``, garbage-size scale for ``garbage``
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {sorted(KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be a probability, got {self.rate}")

    def matches(self, site: str) -> bool:
        return site == self.site or site.startswith(self.site + ".")


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered collection of fault specs."""

    name: str
    specs: Tuple[FaultSpec, ...]

    @staticmethod
    def named(name: str) -> "FaultPlan":
        """Look up one of the predefined plans (see :data:`NAMED_PLANS`)."""
        try:
            return NAMED_PLANS[name]
        except KeyError:
            raise ValueError(
                f"unknown fault plan {name!r}; available: {sorted(NAMED_PLANS)}"
            ) from None


#: the plan vocabulary ``repro chaos --plan`` accepts
NAMED_PLANS: Dict[str, FaultPlan] = {
    "none": FaultPlan("none", ()),
    "standard": FaultPlan(
        "standard",
        (
            FaultSpec("rpc.wire", "drop", 0.06),
            FaultSpec("rpc.wire", "latency", 0.05, magnitude=0.02),
            FaultSpec("rpc.wire", "bit_flip", 0.04),
            FaultSpec("codec", "fail", 0.03),
            FaultSpec("codec", "slow", 0.02, magnitude=0.005),
            FaultSpec("kvstore.storage", "bit_flip", 0.08, magnitude=3),
            FaultSpec("kvstore.durable", "crash", 0.10),
            FaultSpec("kvstore.sync", "drop", 0.05),
            FaultSpec("managed.dictionary", "dict_loss", 0.10),
            FaultSpec("cluster.node", "node_loss", 0.08),
        ),
    ),
    "network": FaultPlan(
        "network",
        (
            FaultSpec("rpc.wire", "drop", 0.20),
            FaultSpec("rpc.wire", "latency", 0.20, magnitude=0.05),
            FaultSpec("rpc.wire", "truncate", 0.05),
        ),
    ),
    "corruption": FaultPlan(
        "corruption",
        (
            FaultSpec("rpc.wire", "bit_flip", 0.15, magnitude=2),
            FaultSpec("kvstore.storage", "bit_flip", 0.20, magnitude=4),
            FaultSpec("kvstore.storage", "truncate", 0.05),
            FaultSpec("cache.payload", "bit_flip", 0.15),
        ),
    ),
    "codec": FaultPlan(
        "codec",
        (
            FaultSpec("codec", "fail", 0.15),
            FaultSpec("codec", "slow", 0.10, magnitude=0.01),
            FaultSpec("managed.dictionary", "dict_loss", 0.25),
        ),
    ),
}


@dataclass
class WireEffects:
    """What the injector did to one message on the wire."""

    payload: bytes
    dropped: bool
    extra_seconds: float
    kinds: Tuple[str, ...]


@dataclass
class CodecEffects:
    """What the injector did to one codec call."""

    payload: bytes
    fail: bool
    slow_seconds: float
    kinds: Tuple[str, ...]


class FaultInjector:
    """Executes a plan: decides, per opportunity, which faults fire.

    Each ``(site-pattern, kind)`` spec owns an independent RNG, so adding
    or removing one spec never perturbs another spec's sequence, and one
    seed reproduces the identical fault history.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        #: (site, kind) of every fault fired, in order
        self.history: List[Tuple[str, str]] = []
        self.fired: Dict[Tuple[str, str], int] = {}
        self.opportunities: Dict[str, int] = {}

    def _rng(self, spec: FaultSpec) -> random.Random:
        key = (spec.site, spec.kind)
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._rngs[key] = random.Random(
                f"fault:{self.seed}:{spec.site}:{spec.kind}"
            )
        return rng

    def decide(self, site: str) -> List[Tuple[FaultSpec, random.Random]]:
        """All specs firing at this opportunity, with their RNGs."""
        self.opportunities[site] = self.opportunities.get(site, 0) + 1
        fired: List[Tuple[FaultSpec, random.Random]] = []
        for spec in self.plan.specs:
            if not spec.matches(site):
                continue
            rng = self._rng(spec)
            if spec.rate and rng.random() < spec.rate:
                fired.append((spec, rng))
                self._record(site, spec.kind)
        return fired

    def _record(self, site: str, kind: str) -> None:
        self.history.append((site, kind))
        key = (site, kind)
        self.fired[key] = self.fired.get(key, 0) + 1
        if OBS_STATE.enabled:
            record_fault_injected(site, kind)

    # -- grouped effects, one decide() pass per call ------------------------

    def on_wire(self, site: str, payload: bytes) -> WireEffects:
        """Channel-transmit faults: drop, latency, payload corruption."""
        from repro.faults.corrupt import corrupt

        dropped = False
        extra_seconds = 0.0
        kinds: List[str] = []
        for spec, rng in self.decide(site):
            kinds.append(spec.kind)
            if spec.kind == "drop":
                dropped = True
            elif spec.kind == "latency":
                extra_seconds += spec.magnitude
            elif spec.kind in PAYLOAD_KINDS:
                payload = corrupt(payload, spec.kind, rng, spec.magnitude)
        return WireEffects(payload, dropped, extra_seconds, tuple(kinds))

    def on_codec_call(self, site: str, payload: bytes = b"") -> CodecEffects:
        """Codec-call faults: simulated failure, slowdown, corruption."""
        from repro.faults.corrupt import corrupt

        fail = False
        slow_seconds = 0.0
        kinds: List[str] = []
        for spec, rng in self.decide(site):
            kinds.append(spec.kind)
            if spec.kind == "fail":
                fail = True
            elif spec.kind == "slow":
                slow_seconds += spec.magnitude
            elif spec.kind in PAYLOAD_KINDS:
                payload = corrupt(payload, spec.kind, rng, spec.magnitude)
        return CodecEffects(payload, fail, slow_seconds, tuple(kinds))

    def corrupt_payload(self, site: str, payload: bytes) -> Tuple[bytes, Tuple[str, ...]]:
        """Payload-only faults (storage scrubs, cache items)."""
        from repro.faults.corrupt import corrupt

        kinds: List[str] = []
        for spec, rng in self.decide(site):
            if spec.kind in PAYLOAD_KINDS:
                kinds.append(spec.kind)
                payload = corrupt(payload, spec.kind, rng, spec.magnitude)
        return payload, tuple(kinds)

    def should(self, site: str, kind: str) -> bool:
        """Does a fault of ``kind`` fire at this single opportunity?"""
        return any(spec.kind == kind for spec, __ in self.decide(site))

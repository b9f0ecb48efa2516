"""``repro.faults`` — deterministic, seed-driven fault injection.

The test harness for the resilience layer (:mod:`repro.resilience`): a
:class:`FaultPlan` declares which faults fire where and how often, a
:class:`FaultInjector` executes it reproducibly (per-spec string-seeded
RNGs; one seed -> one byte-identical fault history), and the wrappers
thread the faults into real traffic:

- :class:`FaultyCodec` — wrap any codec; calls fail, stall, or see
  corrupted payloads.
- :class:`FaultyChannel` — wrap any RPC channel; messages drop, spike,
  or arrive corrupted, inside the channel's retry loop.
- :func:`scrub_sstable` / :func:`scrub_cache` — permanent storage-media
  corruption of a stored SST file's blocks / resident cache entries.

``repro chaos --plan <name> --seed <n>`` (see :mod:`repro.chaos`) runs
the full service stack under a named plan and prints a survival
scorecard.
"""

from repro.faults.corrupt import append_garbage, corrupt, flip_bits, truncate
from repro.faults.crash import CrashInjector, CrashPlan, CrashPoint, SimulatedCrash
from repro.faults.plan import (
    KINDS,
    NAMED_PLANS,
    PAYLOAD_KINDS,
    CodecEffects,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    WireEffects,
)
from repro.faults.wrappers import (
    FaultyChannel,
    FaultyCodec,
    InjectedCodecError,
    scrub_cache,
    scrub_sstable,
)

__all__ = [
    "CodecEffects",
    "CrashInjector",
    "CrashPlan",
    "CrashPoint",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultyChannel",
    "FaultyCodec",
    "InjectedCodecError",
    "KINDS",
    "NAMED_PLANS",
    "PAYLOAD_KINDS",
    "SimulatedCrash",
    "WireEffects",
    "append_garbage",
    "corrupt",
    "flip_bits",
    "scrub_cache",
    "scrub_sstable",
    "truncate",
]

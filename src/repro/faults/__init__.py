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

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.faults.corrupt": ("append_garbage", "corrupt", "flip_bits", "truncate"),
        "repro.faults.crash": ("CrashInjector", "SimulatedCrash"),
        "repro.faults.plan": (
            "CodecEffects",
            "FaultInjector",
            "FaultPlan",
            "FaultSpec",
            "KINDS",
            "NAMED_PLANS",
            "PAYLOAD_KINDS",
            "WireEffects",
        ),
        "repro.faults.wrappers": (
            "FaultyChannel",
            "FaultyCodec",
            "InjectedCodecError",
            "scrub_cache",
            "scrub_sstable",
        ),
    },
)

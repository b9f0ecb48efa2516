"""``repro.serving`` — the admission-controlled compression gateway.

The traffic plane the ROADMAP's north star calls for: concurrent
requests from many tenants flow through explicit admission control
(token bucket + adaptive concurrency), wait in bounded weighted-fair
queues with deadline drops, and — under pressure — step down a
CompOpt-ranked degradation ladder (trade ratio for latency, the
bicriteria move) *before* any load is shed. A deterministic
discrete-event simulator (``repro serve-sim``) runs gateway + seeded
open-loop workload entirely in modeled time and renders a byte-identical
scorecard per seed.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serving.admission": (
            "ADMIT",
            "AdaptiveConcurrencyLimit",
            "AdmissionController",
            "SHED",
            "THROTTLE",
            "TokenBucket",
        ),
        "repro.serving.degrade": (
            "DegradationLadder",
            "Rung",
            "build_ladder",
            "default_thresholds",
        ),
        "repro.serving.gateway": ("CompressionGateway", "GatewayStats"),
        "repro.serving.queue": ("FairQueue", "ServingRequest"),
        "repro.serving.simulate": (
            "SCENARIOS",
            "ServingReport",
            "ServingScenario",
            "format_scorecard",
            "run_simulation",
        ),
        "repro.serving.slos": (
            "ServingSLOConfig",
            "ServingTimeline",
            "TimelineWindow",
            "format_timeline",
            "serving_slos",
            "timeline_jsonl",
        ),
        "repro.serving.workload": (
            "TenantSpec",
            "WorkloadGenerator",
            "tenants_from_fleet",
        ),
    },
)

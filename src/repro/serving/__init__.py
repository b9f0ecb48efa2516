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

from repro.serving.admission import (
    ADMIT,
    SHED,
    THROTTLE,
    AdaptiveConcurrencyLimit,
    AdmissionController,
    TokenBucket,
)
from repro.serving.degrade import (
    DegradationLadder,
    Rung,
    build_ladder,
    default_thresholds,
)
from repro.serving.gateway import CompressionGateway, GatewayStats
from repro.serving.queue import FairQueue, ServingRequest
from repro.serving.simulate import (
    SCENARIOS,
    ServingReport,
    ServingScenario,
    format_scorecard,
    run_simulation,
)
from repro.serving.slos import (
    ServingSLOConfig,
    ServingTimeline,
    TimelineWindow,
    format_timeline,
    serving_slos,
    timeline_jsonl,
)
from repro.serving.workload import (
    TenantSpec,
    WorkloadGenerator,
    tenants_from_fleet,
)

__all__ = [
    "ADMIT",
    "SHED",
    "THROTTLE",
    "AdaptiveConcurrencyLimit",
    "AdmissionController",
    "CompressionGateway",
    "DegradationLadder",
    "FairQueue",
    "GatewayStats",
    "Rung",
    "SCENARIOS",
    "ServingReport",
    "ServingRequest",
    "ServingSLOConfig",
    "ServingScenario",
    "ServingTimeline",
    "TenantSpec",
    "TimelineWindow",
    "TokenBucket",
    "WorkloadGenerator",
    "build_ladder",
    "default_thresholds",
    "format_scorecard",
    "format_timeline",
    "run_simulation",
    "serving_slos",
    "tenants_from_fleet",
    "timeline_jsonl",
]

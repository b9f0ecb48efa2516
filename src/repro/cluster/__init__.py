"""Sharded multi-node serving cluster over the single-node plane.

The package splits along the control/data boundary:

- :mod:`repro.cluster.ring` — consistent hashing (placement);
- :mod:`repro.cluster.node` — one shard's gateway + lifecycle (data);
- :mod:`repro.cluster.autoscaler` — node-count control loop;
- :mod:`repro.cluster.rebalance` — tenant routing + hot-tenant moves;
- :mod:`repro.cluster.simulate` — the discrete-event fleet simulator
  tying them together under one seeded clock.
"""

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig, ScaleEvent
from repro.cluster.node import (
    ACTIVE,
    DRAINING,
    RETIRED,
    ClusterNode,
    NodeConfig,
)
from repro.cluster.rebalance import (
    RebalanceEvent,
    Rebalancer,
    RebalancerConfig,
    TenantRouter,
)
from repro.cluster.ring import HashRing, stable_hash
from repro.cluster.simulate import (
    CLUSTER_SCENARIOS,
    ClusterReport,
    ClusterScenario,
    ShardReport,
    cluster_slos,
    format_cluster_scorecard,
    run_cluster_simulation,
)

__all__ = [
    "ACTIVE",
    "Autoscaler",
    "AutoscalerConfig",
    "CLUSTER_SCENARIOS",
    "ClusterNode",
    "ClusterReport",
    "ClusterScenario",
    "DRAINING",
    "HashRing",
    "NodeConfig",
    "RETIRED",
    "RebalanceEvent",
    "Rebalancer",
    "RebalancerConfig",
    "ScaleEvent",
    "ShardReport",
    "TenantRouter",
    "cluster_slos",
    "format_cluster_scorecard",
    "run_cluster_simulation",
    "stable_hash",
]

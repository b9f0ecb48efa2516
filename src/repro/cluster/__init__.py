"""Sharded multi-node serving cluster over the single-node plane.

The package splits along the control/data boundary:

- :mod:`repro.cluster.ring` — consistent hashing (placement);
- :mod:`repro.cluster.node` — one shard's gateway + lifecycle (data);
- :mod:`repro.cluster.autoscaler` — node-count control loop;
- :mod:`repro.cluster.rebalance` — tenant routing + hot-tenant moves;
- :mod:`repro.cluster.simulate` — the discrete-event fleet simulator
  tying them together under one seeded clock.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.cluster.autoscaler": ("Autoscaler", "AutoscalerConfig", "ScaleEvent"),
        "repro.cluster.node": (
            "ACTIVE",
            "ClusterNode",
            "DRAINING",
            "NodeConfig",
            "RETIRED",
        ),
        "repro.cluster.rebalance": (
            "RebalanceEvent",
            "Rebalancer",
            "RebalancerConfig",
            "TenantRouter",
        ),
        "repro.cluster.ring": ("HashRing", "stable_hash"),
        "repro.cluster.simulate": (
            "CLUSTER_SCENARIOS",
            "ClusterReport",
            "ClusterScenario",
            "ShardReport",
            "cluster_slos",
            "format_cluster_scorecard",
            "run_cluster_simulation",
        ),
    },
)

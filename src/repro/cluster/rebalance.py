"""Tenant routing over the ring, plus hot-tenant rebalancing.

Routing is two layers. The :class:`TenantRouter` answers "which nodes
serve this tenant" — normally the ring's replica set, but a rebalance
can pin a tenant to an explicit override set. Within a replica set,
requests spread by ``request_id % len(replicas)``: deterministic,
stateless, and deliberately making one tenant's traffic *span* its
replicas — the multi-shard reality the SLO drilldown fix in
:mod:`repro.serving.slos` is tested against.

The :class:`Rebalancer` watches per-tenant routed volume per shard
between control ticks. A tenant that dominates a pressured shard (share
of its routed traffic ≥ ``hot_share`` while the shard's queue pressure
≥ ``pressure_floor``) is migrated: its replica set is overridden to the
least-pressured active nodes. Only that tenant's keys move — the ring
itself is untouched, so every other tenant's routing is provably
unchanged (the minimal-movement companion to the ring's own property).
A per-tenant cooldown stops the same tenant ping-ponging between
shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.ring import HashRing


@dataclass(frozen=True)
class RebalanceEvent:
    """One executed migration, for the scorecard."""

    at: float
    tenant: str
    from_nodes: Tuple[str, ...]
    to_nodes: Tuple[str, ...]
    reason: str


class TenantRouter:
    """Replica-set lookup: ring by default, overrides after rebalance."""

    def __init__(self, ring: HashRing) -> None:
        self.ring = ring
        self.overrides: Dict[str, Tuple[str, ...]] = {}

    def replica_set(self, tenant: str) -> Tuple[str, ...]:
        override = self.overrides.get(tenant)
        if override is not None:
            return override
        return tuple(self.ring.replica_set(tenant))

    def route(self, tenant: str, request_id: int) -> str:
        replicas = self.replica_set(tenant)
        return replicas[request_id % len(replicas)]

    def assignments(self, tenants: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
        return {t: self.replica_set(t) for t in tenants}

    def drop_node(self, node: str, tenants: Sequence[str]) -> List[str]:
        """Remove a departing node from routing; returns moved tenants.

        The node must already be off the ring. Overrides that referenced
        it are rewritten against the ring (falling back to the natural
        replica set keeps the override's intent without inventing a
        placement policy here). The returned tenants are those whose
        replica set actually changed — the "only keys it owned move"
        accounting for scale-down events.
        """
        before = self.assignments(tenants)
        for tenant, nodes in list(self.overrides.items()):
            if node in nodes:
                del self.overrides[tenant]
        return [
            t for t in tenants if self.replica_set(t) != before[t]
        ]


@dataclass(frozen=True)
class RebalancerConfig:
    """When a tenant counts as hot, and how migration is damped."""

    #: tenant's share of a shard's routed traffic to count as hot
    hot_share: float = 0.5
    #: shard queue pressure below which nothing migrates
    pressure_floor: float = 0.5
    #: minimum routed requests on the shard this tick (noise floor)
    min_requests: int = 20
    #: per-tenant quiet period between migrations, simulated seconds
    cooldown_seconds: float = 1.0


class Rebalancer:
    """Migrates hot tenants off pressured shards via router overrides."""

    def __init__(
        self,
        router: TenantRouter,
        config: Optional[RebalancerConfig] = None,
    ) -> None:
        self.router = router
        self.config = config if config is not None else RebalancerConfig()
        self._last_moved_at: Dict[str, float] = {}

    def observe(
        self,
        now: float,
        routed_by_node: Dict[str, Dict[str, int]],
        pressures: Dict[str, float],
        active_nodes: Sequence[str],
    ) -> List[RebalanceEvent]:
        """One control tick: find hot (tenant, shard) pairs and migrate.

        ``routed_by_node`` is requests routed per node per tenant since
        the previous tick; ``pressures`` the nodes' current queue
        pressures. Iteration order is sorted throughout so the decision
        sequence is deterministic.
        """
        cfg = self.config
        replicas = self.router.ring.replicas
        fired: List[RebalanceEvent] = []
        for node in sorted(routed_by_node):
            if pressures.get(node, 0.0) < cfg.pressure_floor:
                continue
            by_tenant = routed_by_node[node]
            total = sum(by_tenant.values())
            if total < cfg.min_requests:
                continue
            # hottest tenant first; name breaks ties deterministically
            for tenant, count in sorted(
                by_tenant.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                if count / total < cfg.hot_share:
                    break
                last = self._last_moved_at.get(tenant)
                if last is not None and now - last < cfg.cooldown_seconds:
                    continue
                current = self.router.replica_set(tenant)
                # coldest active nodes, excluding the pressured shard
                candidates = sorted(
                    (n for n in active_nodes if n != node),
                    key=lambda n: (pressures.get(n, 0.0), n),
                )
                target = tuple(candidates[:replicas])
                if not target or target == current:
                    continue
                self.router.overrides[tenant] = target
                self._last_moved_at[tenant] = now
                event = RebalanceEvent(
                    at=now,
                    tenant=tenant,
                    from_nodes=current,
                    to_nodes=target,
                    reason=(
                        f"{count}/{total} of shard {node} at pressure "
                        f"{pressures.get(node, 0.0):.2f}"
                    ),
                )
                fired.append(event)
        return fired

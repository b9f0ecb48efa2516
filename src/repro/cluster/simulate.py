"""Deterministic discrete-event simulation of the sharded cluster.

This extends the single-node simulator (:mod:`repro.serving.simulate`)
to a fleet: one seeded :class:`~repro.serving.workload.WorkloadGenerator`
feeds a consistent-hash :class:`~repro.cluster.ring.HashRing` routing
tenants to :class:`~repro.cluster.node.ClusterNode` shards, all advanced
by one event heap over one :class:`~repro.resilience.clock.SimClock`.
Per-shard telemetry windows fold into fleet windows by index
(:func:`repro.obs.rollup.merge_shard_windows`), the fleet SLOs (shed
rate, p99 latency) evaluate on the fold, and two control loops act on
the same signals the alert plane reads:

- the :class:`~repro.cluster.autoscaler.Autoscaler` adds nodes under
  queue pressure / p99 burn and drains the least-loaded node when the
  fleet idles — a drained node leaves the ring immediately but serves
  its queue to empty before retiring, so scale-down never strands an
  admitted request;
- the :class:`~repro.cluster.rebalance.Rebalancer` migrates a tenant
  that dominates a pressured shard onto the coldest nodes, moving only
  that tenant's keys.

Everything is modeled time; the same ``(scenario, seed, scale)``
renders a byte-identical scorecard across runs *and* across ``--jobs``
(the golden scorecard test pins both). ``scale`` multiplies duration:
the default scenarios run a few thousand requests, ``--scale 30`` takes
the same scenario to O(10⁵) requests across tens of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.rollup import merge_shard_windows
from repro.obs.slo import (
    SLO,
    AlertSummary,
    SLOEvaluator,
    format_states,
    format_transition,
)
from repro.obs.timeseries import merge_windows
from repro.parallel.executors import make_executor
from repro.resilience.clock import SimClock
from repro.serving.gateway import CodecCache
from repro.serving.queue import ServingRequest
from repro.serving.simulate import (
    DEFAULT_WINDOW_SECONDS,
    ServingScenario,
    scenario_traffic,
)
from repro.serving.slos import (
    ALL_TENANTS,
    fmt_opt,
    latency_p99_slo,
    record_window_completion,
    shed_rate_slo,
    traffic_counts,
    traffic_lines,
    window_latency_p99,
)
from repro.serving.workload import TenantSpec, tenants_from_fleet
from repro.sim import (
    CONTROL,
    EventLoop,
    TrafficReport,
    resolve_scenario,
    settle,
)
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
from repro.cluster.ring import HashRing


@dataclass(frozen=True, kw_only=True)
class ClusterScenario(ServingScenario):
    """One named fleet-level load shape: a serving scenario's traffic
    over ``initial_nodes`` identical nodes plus the control plane."""

    initial_nodes: int
    node: NodeConfig = NodeConfig()
    #: ring shape
    vnodes: int = 64
    replicas: int = 2
    #: control-loop tick spacing, simulated seconds
    control_interval_seconds: float = 0.25
    autoscale: bool = True
    autoscaler: AutoscalerConfig = AutoscalerConfig()
    rebalance: bool = False
    rebalancer: RebalancerConfig = RebalancerConfig()
    #: multiply the heaviest tenant's weight by this (1.0 = natural mix)
    hot_tenant_boost: float = 1.0
    #: distinct payloads per tenant (the codec-cache working set)
    payload_pool: int = 48
    #: clamp on tenant median payload bytes — the cache makes request
    #: *count* cheap but every distinct pool payload is compressed for
    #: real, so fleet scenarios keep the working set modest
    payload_median_cap: int = 4096
    #: fleet SLO objectives
    shed_budget: float = 0.002
    latency_p99_seconds: float = 0.25


CLUSTER_SCENARIOS: Dict[str, ClusterScenario] = {
    "fleet-steady": ClusterScenario(
        name="fleet-steady",
        description="comfortable fleet headroom; autoscaler may trim idle nodes",
        rate_rps=300.0,
        duration_seconds=6.0,
        initial_nodes=8,
        autoscaler=AutoscalerConfig(min_nodes=4, max_nodes=12),
    ),
    "fleet-surge": ClusterScenario(
        name="fleet-surge",
        description="diurnal swing whose peak overloads the initial fleet",
        rate_rps=600.0,
        duration_seconds=8.0,
        initial_nodes=4,
        process="diurnal",
        diurnal_amplitude=0.85,
        # contended hosts: the initial fleet covers the base rate with
        # ~55% headroom but the diurnal peak (~1110 rps) exceeds it
        node=NodeConfig(service_scale=1000.0),
        rebalance=True,
        rebalancer=RebalancerConfig(hot_share=0.4, pressure_floor=0.4),
        autoscaler=AutoscalerConfig(
            min_nodes=3,
            max_nodes=16,
            # act on queue growth early enough that short-deadline
            # tenants are not already expiring (expiry counts against
            # the shed-rate budget) — see the scale-before-page test
            up_pressure=0.25,
            down_pressure=0.08,
            down_after=8,
            step_up=2,
        ),
        shed_budget=0.01,
    ),
    "fleet-hotspot": ClusterScenario(
        name="fleet-hotspot",
        description="one tenant dominates; the rebalancer spreads it",
        rate_rps=520.0,
        duration_seconds=6.0,
        initial_nodes=6,
        node=NodeConfig(service_scale=1000.0),
        hot_tenant_boost=6.0,
        rebalance=True,
        rebalancer=RebalancerConfig(hot_share=0.4, pressure_floor=0.4),
        autoscale=False,
        autoscaler=AutoscalerConfig(min_nodes=4, max_nodes=16),
        shed_budget=0.01,
    ),
}


@dataclass
class ShardReport:
    """One node's line in the scorecard; the counts are read off the
    node's own windows (``routed`` is its arrival verdicts)."""

    name: str
    status: str
    created_at: float
    retired_at: Optional[float]
    routed: int
    admitted: int
    throttled: int
    shed: int
    expired: int
    served: int
    degraded: int
    raw_fallbacks: int
    bytes_in: int
    bytes_out: int
    peak_depth: int
    p99_ms: Optional[float]


@dataclass(kw_only=True)
class ClusterReport(TrafficReport):
    """Everything one cluster run learned; ``registry`` folds every fleet
    window, so the traffic fields are fleet totals."""

    scale: float
    window_seconds: float
    autoscale_enabled: bool
    rebalance_enabled: bool
    nodes_initial: int
    nodes_peak: int = 0
    nodes_final_active: int = 0
    # -- per shard / control planes --
    shards: List[ShardReport] = field(default_factory=list)
    scale_events: List[ScaleEvent] = field(default_factory=list)
    rebalance_events: List[RebalanceEvent] = field(default_factory=list)
    # -- the fleet SLO fold (set when the run ends) --
    fleet_windows: int = 0
    alerts: Optional[AlertSummary] = None
    #: fleet codec cache traffic (a cost figure, not in the scorecard)
    cache_hits: int = 0
    cache_misses: int = 0

    def shed_rate(self) -> float:
        offered = self.admitted + self.throttled + self.shed
        unserved = self.throttled + self.shed + self.expired
        return unserved / offered if offered else 0.0


def cluster_slos(shed_budget: float, latency_bound: float) -> List[SLO]:
    """The fleet objectives, evaluated over merged shard windows."""
    return [shed_rate_slo(shed_budget), latency_p99_slo(latency_bound)]


def _cluster_tenants(sc: ClusterScenario) -> List[TenantSpec]:
    tenants = tenants_from_fleet(
        sc.categories, max_median_bytes=sc.payload_median_cap
    )
    if sc.hot_tenant_boost <= 1.0:
        return tenants
    hottest = max(tenants, key=lambda t: (t.weight, t.name))
    boosted = [
        TenantSpec(
            t.name,
            t.weight * sc.hot_tenant_boost if t.name == hottest.name else t.weight,
            t.median_bytes,
            t.sigma,
            t.deadline_seconds,
            t.corpus,
        )
        for t in tenants
    ]
    total = sum(t.weight for t in boosted)
    return [
        TenantSpec(
            t.name, t.weight / total, t.median_bytes, t.sigma,
            t.deadline_seconds, t.corpus,
        )
        for t in boosted
    ]


def run_cluster_simulation(
    scenario="fleet-surge",
    seed: int = 7,
    scale: float = 1.0,
    jobs: int = 1,
    autoscale: Optional[bool] = None,
    rebalance: Optional[bool] = None,
) -> ClusterReport:
    """Run one cluster scenario end to end; returns the full report.

    ``autoscale`` / ``rebalance`` override the scenario's control-loop
    switches (None = scenario default). ``jobs`` sizes the fleet-shared
    executor behind the fleet codec cache; the scorecard is
    byte-identical at every value.
    """
    sc = resolve_scenario(scenario, CLUSTER_SCENARIOS, "cluster")
    window_seconds = DEFAULT_WINDOW_SECONDS
    autoscale_on = sc.autoscale if autoscale is None else autoscale
    rebalance_on = sc.rebalance if rebalance is None else rebalance

    tenants = _cluster_tenants(sc)
    workload, arrivals, ladder = scenario_traffic(
        sc, tenants, seed, scale, window_seconds, payload_pool=sc.payload_pool
    )
    tenant_names = [t.name for t in tenants]
    tenant_weights = workload.tenant_weights()

    clock = SimClock()
    cache = CodecCache()
    executor = make_executor(jobs)

    ring = HashRing(vnodes=sc.vnodes, replicas=sc.replicas)
    router = TenantRouter(ring)
    nodes: Dict[str, ClusterNode] = {}
    next_node_id = 0

    def spawn_node(at: float) -> ClusterNode:
        nonlocal next_node_id
        name = f"node-{next_node_id:02d}"
        next_node_id += 1
        ring.add_node(name)
        node = ClusterNode(
            name,
            ladder,
            sc.node,
            clock,
            tenant_weights=tenant_weights,
            window_seconds=window_seconds,
            codec_cache=cache,
            executor=executor,
            created_at=at,
        )
        # share the fleet's window index from the first record on: the
        # sweep below only runs at window edges, so nobody else would
        # close this joiner's empty history before it takes traffic
        node.advance_windows(at)
        nodes[name] = node
        return node

    for __ in range(sc.initial_nodes):
        spawn_node(0.0)

    def active_count() -> int:
        return sum(1 for node in nodes.values() if node.status == ACTIVE)

    def retire_drained(at: float) -> None:
        for __, node in sorted(nodes.items()):
            if node.status == DRAINING and node.idle():
                node.retire(at)

    autoscaler = Autoscaler(sc.autoscaler) if autoscale_on else None
    rebalancer = (
        Rebalancer(router, sc.rebalancer) if rebalance_on else None
    )

    report = ClusterReport(
        scenario=sc.name,
        seed=seed,
        scale=scale,
        window_seconds=window_seconds,
        autoscale_enabled=autoscale_on,
        rebalance_enabled=rebalance_on,
        ladder_labels=ladder.labels(),
        rung0_ratio=ladder.rungs[0].ratio,
        nodes_initial=sc.initial_nodes,
        nodes_peak=sc.initial_nodes,
    )

    # -- the fleet SLO fold: merge per-shard windows by index ----------------
    evaluator = SLOEvaluator(cluster_slos(sc.shed_budget, sc.latency_p99_seconds))
    fleet_windows = evaluator.windows

    def fold_fleet_windows() -> None:
        """Fold every fleet window some node has closed. All recorders
        start at 0 with one width and advance together, so a closed index is
        at that position in each node's ``windows`` (a flushed tail only
        on the nodes that had one)."""
        while True:
            index = len(fleet_windows)
            slices = [
                node.windows[index]
                for __, node in sorted(nodes.items())
                if len(node.windows) > index
            ]
            if not slices:
                break
            evaluator.on_window(merge_shard_windows([slices])[0])

    #: the shared end of every node's in-progress window; no recorder
    #: can close anything before it, so events inside a window skip the
    #: per-node sweep (0.0: the first event reads the real edge)
    next_edge = 0.0

    def advance_all(now: float) -> None:
        nonlocal next_edge
        if now < next_edge:
            return
        for __, node in sorted(nodes.items()):
            node.advance_windows(now)
        next_edge = min(node.recorder.next_edge for node in nodes.values())
        fold_fleet_windows()

    loop = EventLoop(clock, arrivals)
    horizon = sc.duration_seconds * scale
    tick = sc.control_interval_seconds
    ticks = 1
    while ticks * tick <= horizon + 4 * tick:
        loop.schedule(ticks * tick, CONTROL)
        ticks += 1
    #: per-tick routed volume per node per tenant (the rebalance signal)
    routed_delta: Dict[str, Dict[str, int]] = {}

    def control_tick(now: float) -> None:
        active = [
            node for __, node in sorted(nodes.items())
            if node.status == ACTIVE
        ]
        pressures = [node.pressure for node in active]
        # the alert plane's own reading: p99 over the bound across the
        # page rule's long view, as of the last fleet window close
        burn = evaluator.burn("latency_p99")
        if rebalancer is not None:
            moved = rebalancer.observe(
                now,
                routed_delta,
                {node.name: node.pressure for node in active},
                [node.name for node in active],
            )
            report.rebalance_events.extend(moved)
        routed_delta.clear()
        decision = (
            autoscaler.observe(now, len(active), pressures, burn)
            if autoscaler is not None
            else None
        )
        if decision is not None:
            before = router.assignments(tenant_names)
            if decision == Autoscaler.UP:
                changed: List[str] = []
                for __ in range(sc.autoscaler.step_up):
                    if len(active) + len(changed) >= sc.autoscaler.max_nodes:
                        break
                    changed.append(spawn_node(now).name)
            else:
                # drain the least-loaded active node
                victim = min(
                    active, key=lambda n: (n.queued() + n.busy, n.name)
                )
                victim.start_drain()
                ring.remove_node(victim.name)
                router.drop_node(victim.name, tenant_names)
                changed = [victim.name]
            count = active_count()
            report.nodes_peak = max(report.nodes_peak, count)
            mean = sum(pressures) / len(pressures) if pressures else 0.0
            report.scale_events.append(
                ScaleEvent(
                    at=now,
                    action=decision,
                    node="+".join(changed),
                    nodes_after=count,
                    reason=(
                        f"pressure {mean:.2f}, "
                        f"burn {'-' if burn is None else f'{burn:.2f}'}"
                    ),
                    moved_tenants=sum(
                        1
                        for t in tenant_names
                        if router.replica_set(t) != before[t]
                    ),
                )
            )
        retire_drained(now)

    # -- the per-event work: route, record, control -------------------------
    def on_arrival(at: float, __, request: ServingRequest) -> ClusterNode:
        target = router.route(request.tenant, request.request_id)
        node = nodes[target]
        per_tenant = routed_delta.setdefault(target, {})
        per_tenant[request.tenant] = per_tenant.get(request.tenant, 0) + 1
        node.submit(request)
        return node

    def on_done(at: float, node: ClusterNode, served: ServingRequest) -> ClusterNode:
        latency, on_time = settle(node, served, at)
        # repro: lint-ok[O001] -- the recorder is the run's traffic ledger,
        # not optional telemetry: every simulator node is built with one
        record_window_completion(
            node.recorder,
            served.tenant,
            latency,
            served.wait_seconds,
            on_time=on_time,
            bytes_in=served.size,
        )
        return node

    def on_control(at: float, __, ___) -> None:
        control_tick(at)
        for __, node in sorted(nodes.items()):
            if node.status != RETIRED:
                loop.dispatch(node, clock.now())

    loop.run(advance_all, (on_done, on_arrival, on_control))
    executor.close()
    last_event_at = loop.last_event_at

    # -- tail: flush partial windows, fold what remains ----------------------
    for __, node in sorted(nodes.items()):
        node.flush_windows()
    fold_fleet_windows()
    report.alerts = evaluator.finish(last_event_at)
    retire_drained(last_event_at)  # so the final census is honest

    report.fleet_windows = len(fleet_windows)
    report.registry = merge_windows(fleet_windows)
    report.read_counts(traffic_counts(report.registry))
    report.arrivals = loop.arrivals
    report.makespan_seconds = last_event_at
    report.cache_hits = cache.hits
    report.cache_misses = cache.misses
    report.nodes_final_active = active_count()
    report.nodes_peak = max(
        report.nodes_peak,
        len([n for n in nodes.values() if n.status != RETIRED]),
    )

    for __, node in sorted(nodes.items()):
        registry = merge_windows(node.windows)
        counts = traffic_counts(registry)
        p99 = window_latency_p99(registry, ALL_TENANTS)
        report.shards.append(
            ShardReport(
                name=node.name,
                status=node.status,
                created_at=node.created_at,
                retired_at=node.retired_at,
                routed=counts["offered"],
                admitted=counts["admitted"],
                throttled=counts["throttled"],
                shed=counts["shed"],
                expired=counts["expired"],
                served=counts["served"],
                degraded=counts["degraded"],
                raw_fallbacks=counts["raw_fallbacks"],
                bytes_in=counts["bytes_in_served"],
                bytes_out=counts["bytes_out"],
                peak_depth=node.peak_depth,
                p99_ms=None if p99 is None else p99 * 1e3,
            )
        )
    return report


def format_cluster_scorecard(report: ClusterReport) -> str:
    """Render the report; byte-identical for identical reports."""
    lines = [
        f"cluster scorecard -- scenario '{report.scenario}', "
        f"seed {report.seed}, scale {report.scale:g}, "
        f"autoscaler {'on' if report.autoscale_enabled else 'off'}, "
        f"rebalancer {'on' if report.rebalance_enabled else 'off'}",
        "",
        f"ladder: {' -> '.join(report.ladder_labels)}",
        f"nodes:  initial {report.nodes_initial}, peak {report.nodes_peak}, "
        f"final active {report.nodes_final_active}",
        "",
        *traffic_lines(report, f"{report.shed_rate() * 100:.2f}%"),
    ]
    lines.append(
        f"ratio      achieved {report.achieved_ratio:.3f} "
        f"(rung-0 reference {report.rung0_ratio:.3f}); "
        f"degraded {report.degraded}, raw fallbacks {report.raw_fallbacks}"
    )
    lines.append("")
    lines.append(
        f"{'shard':9s} {'status':>8s} {'routed':>7s} {'admit':>6s} "
        f"{'shed':>5s} {'exp':>4s} {'served':>7s} {'degr':>5s} "
        f"{'p99 ms':>8s} {'peak-q':>6s}"
    )
    for shard in report.shards:
        lines.append(
            f"{shard.name:9s} {shard.status:>8s} {shard.routed:7d} "
            f"{shard.admitted:6d} {shard.shed:5d} {shard.expired:4d} "
            f"{shard.served:7d} {shard.degraded:5d} "
            f"{fmt_opt(shard.p99_ms, '8.2f', 8)} {shard.peak_depth:6d}"
        )
    if report.scale_events:
        lines.append("")
        lines.append("autoscaler events:")
        for event in report.scale_events:
            lines.append(
                f"  {event.at:7.3f} s  scale-{event.action} {event.node} "
                f"-> {event.nodes_after} active ({event.reason}); "
                f"moved {event.moved_tenants} tenants"
            )
    if report.rebalance_events:
        lines.append("")
        lines.append("rebalance events:")
        for event in report.rebalance_events:
            lines.append(
                f"  {event.at:7.3f} s  {event.tenant}: "
                f"{'+'.join(event.from_nodes)} -> {'+'.join(event.to_nodes)} "
                f"({event.reason})"
            )
    lines.append("")
    alerts = report.alerts
    lines.append(
        f"slo: final states {format_states(alerts.final_states)}; "
        f"page {alerts.total_page_seconds():.3f} s "
        f"(warn {alerts.total_warn_seconds():.3f} s) "
        f"over {report.fleet_windows} fleet windows"
    )
    for t in alerts.transitions:
        lines.append("  " + format_transition(t, f"{t.at:.3f} s"))
    return "\n".join(lines)

"""Deterministic discrete-event simulation of the serving plane.

The simulator runs the :class:`~repro.serving.gateway.CompressionGateway`
against a :class:`~repro.serving.workload.WorkloadGenerator` with zero
wall-clock dependence: arrivals come from the seeded workload, service
durations are modeled (machine model x host-contention scale), and time
is an event heap driving a :class:`~repro.resilience.clock.SimClock`.
The same ``(scenario, seed, scale)`` therefore renders a byte-identical
scorecard — the property CI certifies by diffing two runs, exactly as it
does for ``repro chaos``.

Scenario vocabulary:

- ``baseline``  — comfortable headroom; the ladder should stay on rung 0.
- ``overload``  — sustained arrivals beyond capacity; the ladder engages
  and, if pressure still wins, admission sheds.
- ``burst``     — diurnal arrivals whose peak overloads a fleet sized for
  the average (the paper's "services see daily load swings" reality).

The scorecard reports p50/p90/p99 latency and queue wait, goodput
(on-time bytes per simulated second), shed/throttle/expired counts, and
the compression ratio lost to degradation — the bicriteria trade made
explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.slo import SLOEvaluator
from repro.obs.timeseries import WindowSnapshot, merge_windows
from repro.parallel.executors import make_executor
from repro.resilience.clock import SimClock
from repro.serving.degrade import DegradationLadder, build_ladder
from repro.serving.node import NodeConfig, ServingNode
from repro.serving.queue import ServingRequest
from repro.serving.slos import (
    WINDOW_DEGRADED,
    ServingSLOConfig,
    ServingTimeline,
    TimelineWindow,
    build_window_row,
    label_totals,
    ratio_lost,
    record_window_completion,
    serving_slos,
    traffic_counts,
    traffic_lines,
)
from repro.serving.workload import TenantSpec, WorkloadGenerator, tenants_from_fleet
from repro.sim import EventLoop, TrafficReport, resolve_scenario, settle

#: ladder candidate grid: the levels production fleets actually run
#: (Fig. 4: levels 1-4 carry most cycles) plus one high-ratio anchor
_LADDER_ALGORITHMS = ("zstd", "lz4")
_LADDER_LEVELS = (1, 2, 3, 6)
#: payload samples used to measure the ladder grid
_LADDER_SAMPLES = 12


@dataclass(frozen=True)
class ServingScenario:
    """One named load shape for the simulator."""

    name: str
    description: str
    rate_rps: float
    duration_seconds: float
    #: sizing of the one node the scenario runs on
    node: NodeConfig
    process: str = "poisson"
    diurnal_amplitude: float = 0.6
    categories: Tuple[str, ...] = ("Cache", "Key-Value Store", "Web", "Ads")


SCENARIOS: Dict[str, ServingScenario] = {
    "baseline": ServingScenario(
        name="baseline",
        description="comfortable headroom; rung 0 throughout",
        rate_rps=60.0,
        duration_seconds=4.0,
        node=NodeConfig(
            workers=4,
            capacity=64,
            token_rate=200.0,
            token_burst=64,
            target_latency=0.08,
        ),
    ),
    "overload": ServingScenario(
        name="overload",
        description="sustained 2-3x capacity; ladder engages, then sheds",
        rate_rps=260.0,
        duration_seconds=4.0,
        node=NodeConfig(
            workers=2,
            capacity=32,
            token_rate=600.0,
            token_burst=128,
            target_latency=0.08,
        ),
    ),
    "burst": ServingScenario(
        name="burst",
        description="diurnal swing whose peak overloads the average-sized fleet",
        rate_rps=100.0,
        duration_seconds=4.0,
        node=NodeConfig(
            workers=2,
            capacity=48,
            token_rate=400.0,
            token_burst=96,
            target_latency=0.08,
        ),
        process="diurnal",
        diurnal_amplitude=0.8,
    ),
}


@dataclass(kw_only=True)
class ServingReport(TrafficReport):
    """Everything one simulation run learned."""

    degradation_enabled: bool
    thresholds: List[float]
    first_degraded_at: Optional[float] = None
    first_shed_at: Optional[float] = None
    #: the window-by-window SLO record of the run
    timeline: Optional[ServingTimeline] = None

    def shed_rate(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    def ratio_lost_to_degradation(self) -> float:
        """:func:`repro.serving.slos.ratio_lost` over the whole run; 0.0
        where that is undefined."""
        lost = ratio_lost(traffic_counts(self.registry), self.rung0_ratio)
        return 0.0 if lost is None else lost


def build_scenario_ladder(
    requests: Sequence, graphs: Sequence[str] = ()
) -> DegradationLadder:
    """Ladder measured on the run's own leading payloads.

    ``graphs`` names trained graph codecs (``repro.graphs``) to enter as
    ladder candidates alongside the flat grid; empty keeps the ladder —
    and therefore every downstream scorecard byte — unchanged.
    """
    samples = [r.payload for r in requests[:_LADDER_SAMPLES] if r.payload]
    if not samples:
        samples = [b"serving ladder reference sample " * 32]
    return build_ladder(
        samples,
        algorithms=_LADDER_ALGORITHMS,
        levels=_LADDER_LEVELS,
        graphs=graphs,
    )


#: default rolling-window width for the SLO timeline, seconds
DEFAULT_WINDOW_SECONDS = 0.25


def scenario_traffic(
    sc: ServingScenario,
    tenants: Sequence[TenantSpec],
    seed: int,
    scale: float,
    window_seconds: float,
    graphs: Sequence[str] = (),
    payload_pool: Optional[int] = None,
) -> Tuple[WorkloadGenerator, Iterator[ServingRequest], DegradationLadder]:
    """Check the run knobs, start ``sc``'s seeded request stream over
    ``scale`` times its duration, and measure the ladder on its first
    ``_LADDER_SAMPLES`` requests, which the returned stream still yields."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    workload = WorkloadGenerator(
        tenants=tenants,
        rate_rps=sc.rate_rps,
        duration_seconds=sc.duration_seconds * scale,
        seed=seed,
        process=sc.process,
        diurnal_amplitude=sc.diurnal_amplitude,
        payload_pool=payload_pool,
    )
    stream = workload.generate()
    head = list(islice(stream, _LADDER_SAMPLES))
    return workload, chain(head, stream), build_scenario_ladder(head, graphs=graphs)


def run_simulation(
    scenario="overload",
    seed: int = 7,
    scale: float = 1.0,
    degradation: Optional[bool] = None,
    jobs: int = 1,
    tenants: Optional[Sequence[TenantSpec]] = None,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    slo_config: Optional[ServingSLOConfig] = None,
    graphs: Optional[Sequence[str]] = None,
) -> ServingReport:
    """Run one scenario end to end; returns the full report.

    ``scale`` multiplies the scenario duration (0.25 = quick smoke, same
    convention as ``repro chaos --ops``); ``degradation`` overrides the
    ladder on/off (None = on); ``jobs`` sizes the gateway's executor —
    output is byte-identical across job counts because compression output
    and modeled time are functions of the payload alone; ``graphs``
    names trained graph codecs to enter as ladder candidates (None/empty
    preserves the pre-graph ladder byte for byte).

    The run records fixed-width metric windows, evaluates the serving
    SLOs after each window closes, and attaches the resulting
    :class:`~repro.serving.slos.ServingTimeline` to the report. The
    timeline is a pure function of the simulated events, so it inherits
    the scorecard's byte-identical-per-seed property.

    The run is a cluster of one static :class:`~repro.serving.node.ServingNode`
    on :class:`~repro.sim.EventLoop`: no routing, no control ticks.
    """
    sc = resolve_scenario(scenario, SCENARIOS, "serving")
    degradation_enabled = True if degradation is None else degradation
    workload, arrivals, ladder = scenario_traffic(
        sc,
        tenants if tenants is not None else tenants_from_fleet(sc.categories),
        seed,
        scale,
        window_seconds,
        graphs=graphs or (),
    )
    clock = SimClock()
    executor = make_executor(jobs)
    node = ServingNode(
        ladder,
        sc.node,
        clock,
        tenant_weights=workload.tenant_weights(),
        window_seconds=window_seconds,
        executor=executor,
        degradation_enabled=degradation_enabled,
    )
    report = ServingReport(
        scenario=sc.name,
        seed=seed,
        degradation_enabled=degradation_enabled,
        ladder_labels=ladder.labels(),
        thresholds=list(ladder.thresholds),
        rung0_ratio=ladder.rungs[0].ratio,
    )

    # -- the SLO timeline: one row per closed window -------------------------
    config = slo_config if slo_config is not None else ServingSLOConfig()
    evaluator = SLOEvaluator(serving_slos(config, report.rung0_ratio))
    rows: List[TimelineWindow] = []

    def close_window(snapshot: WindowSnapshot) -> None:
        edges = evaluator.on_window(snapshot)
        rows.append(build_window_row(snapshot, evaluator, report.rung0_ratio, edges))

    def advance(at: float) -> None:
        if at >= node.recorder.next_edge:
            for snapshot in node.advance_windows(at):
                close_window(snapshot)

    # -- the per-event work: no routing, no control ticks --------------------
    def on_arrival(at: float, __, request) -> ServingNode:
        node.gateway.submit(request)
        return node

    def on_done(at: float, node: ServingNode, served: ServingRequest) -> ServingNode:
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

    loop = EventLoop(clock, arrivals)
    loop.run(advance, (on_done, on_arrival))
    executor.close()

    tail = node.flush_windows()
    if tail is not None:
        close_window(tail)
    report.timeline = ServingTimeline(
        scenario=sc.name,
        seed=seed,
        scale=scale,
        window_seconds=window_seconds,
        config=config,
        windows=rows,
        alerts=evaluator.finish(loop.last_event_at),
    )

    report.registry = merge_windows(evaluator.windows)
    report.read_counts(traffic_counts(report.registry))
    stats = node.gateway.stats
    report.first_degraded_at = stats.first_degraded_at
    report.first_shed_at = stats.first_shed_at
    report.arrivals = loop.arrivals
    report.makespan_seconds = loop.last_event_at
    return report


def format_scorecard(report: ServingReport) -> str:
    """Render the report; byte-identical for identical reports."""
    lines = [
        f"serving scorecard -- scenario '{report.scenario}', seed {report.seed}, "
        f"degradation {'on' if report.degradation_enabled else 'off'}",
        "",
        f"ladder: {' -> '.join(report.ladder_labels)} "
        f"(pressure thresholds {'/'.join(f'{t:.2f}' for t in report.thresholds)})",
        "",
        *traffic_lines(report, f"{report.shed_rate() * 100:.1f}%"),
    ]
    lines.append(
        f"ratio      achieved {report.achieved_ratio:.3f} "
        f"(rung-0 reference {report.rung0_ratio:.3f}, "
        f"lost to degradation {report.ratio_lost_to_degradation() * 100:.1f}%)"
    )
    if report.degraded:
        lines.append(
            f"degraded   {report.degraded} requests "
            f"({report.degraded / max(1, report.served) * 100:.1f}% of served)"
        )
        for label, count in label_totals(
            report.registry, WINDOW_DEGRADED, "rung"
        ).items():
            lines.append(f"  {label}: {count}")
    if report.raw_fallbacks:
        lines.append(f"raw fallbacks: {report.raw_fallbacks}")
    timeline = []
    if report.first_degraded_at is not None:
        timeline.append(f"first degraded at {report.first_degraded_at:.3f} s")
    if report.first_shed_at is not None:
        timeline.append(f"first shed at {report.first_shed_at:.3f} s")
    if timeline:
        lines.append("; ".join(timeline))
    return "\n".join(lines)

"""The simulation kernel both simulators run on.

``repro serve-sim`` is ``repro cluster-sim`` at its smallest size: a
cluster of one static node with routing and the control plane off. This
module owns what the two share, once: the event heap and its order
(:class:`EventLoop`), dispatch and the completion accounting
(:meth:`EventLoop.dispatch`, :meth:`TrafficReport.settle`), and the
traffic counters and their scorecard block (:class:`TrafficReport`,
:func:`traffic_lines`). The alert plane they also share is
:class:`repro.obs.slo.SLOEvaluator`.

What a simulator does per event — route or submit an arrival, record a
completion with its window recorder, run a control tick — stays in the
simulator, as one handler per event kind. Nodes are duck-typed
(:class:`repro.serving.node.ServingNode`), so nothing here imports
``repro.serving``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Sequence, Tuple

from repro.obs.metrics import Histogram
from repro.resilience.clock import SimClock

#: event kinds, which are also the same-instant priorities: completions
#: land before arrivals so a freed worker is visible to the dispatch that
#: follows the arrival, and control ticks run last so a control decision
#: sees that instant's settled state
DONE, ARRIVAL, CONTROL = 0, 1, 2


def resolve_scenario(scenario, registry: Dict[str, object], plane: str):
    """A scenario object passes through; a name is looked up."""
    if not isinstance(scenario, str):
        return scenario
    try:
        return registry[scenario]
    except KeyError:
        raise ValueError(
            f"unknown {plane} scenario {scenario!r}; available: {sorted(registry)}"
        )


class EventLoop:
    """A heap of ``(time, kind, seq, node, payload)`` over one clock."""

    def __init__(self, clock: SimClock, requests: Sequence) -> None:
        self.clock = clock
        self.last_event_at = 0.0
        self._events: List[Tuple[float, int, int, object, object]] = [
            (request.arrival, ARRIVAL, seq, None, request)
            for seq, request in enumerate(requests)
        ]
        self._seq = len(self._events)
        heapq.heapify(self._events)

    def schedule(self, at: float, kind: int) -> None:
        heapq.heappush(self._events, (at, kind, self._seq, None, None))
        self._seq += 1

    def dispatch(self, node, now: float) -> None:
        """Serve up to ``node``'s free width; each serve becomes a ``DONE``
        event at ``now`` plus its modeled service time."""
        width = node.controller.concurrency(node.config.workers) - node.busy
        if width <= 0:
            return
        for request in node.gateway.serve_batch(now, width):
            heapq.heappush(
                self._events,
                (now + request.service_seconds, DONE, self._seq, node, request),
            )
            self._seq += 1
            node.busy += 1

    def run(
        self, advance: Callable[[float], None], handlers: Sequence[Callable]
    ) -> None:
        """Drain the heap. Per event: move the clock, let ``advance(at)``
        close telemetry windows, call ``handlers[kind](at, node, payload)``
        and dispatch the node it returns (None: nothing to dispatch)."""
        events, clock, dispatch = self._events, self.clock, self.dispatch
        while events:
            at, kind, __, node, payload = heapq.heappop(events)
            now = clock.now()
            if at > now:
                clock.advance(at - now)
            advance(at)
            if at > self.last_event_at:
                self.last_event_at = at
            node = handlers[kind](at, node, payload)
            if node is not None:
                dispatch(node, clock.now())


@dataclass(kw_only=True)
class TrafficReport:
    """The request accounting every simulated run reports."""

    #: prefix of the two histogram metric names (``serving`` / ``cluster``)
    metric_prefix: ClassVar[str]

    scenario: str
    seed: int
    ladder_labels: List[str]
    #: measured ratio of the unpressured rung-0 configuration (what
    #: "ratio lost to degradation" compares against)
    rung0_ratio: float = 0.0
    arrivals: int = 0
    admitted: int = 0
    throttled: int = 0
    shed: int = 0
    expired: int = 0
    served: int = 0
    on_time: int = 0
    tardy: int = 0
    degraded: int = 0
    raw_fallbacks: int = 0
    bytes_in_served: int = 0
    bytes_out: int = 0
    #: input bytes of requests completed within their deadline
    bytes_on_time: int = 0
    makespan_seconds: float = 0.0
    # -- distributions (one series, label ``source="all"``) --
    latency: Histogram = field(init=False)
    wait: Histogram = field(init=False)

    def __post_init__(self) -> None:
        self.latency = Histogram(
            f"{self.metric_prefix}_latency_seconds", "end-to-end request latency"
        )
        self.wait = Histogram(
            f"{self.metric_prefix}_wait_seconds", "queue wait before dispatch"
        )
        #: completions settled since the last :meth:`drain`, in event order
        self._latencies: List[float] = []
        self._waits: List[float] = []

    @property
    def goodput_bytes_per_second(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.bytes_on_time / self.makespan_seconds

    @property
    def achieved_ratio(self) -> float:
        if not self.bytes_out:
            return 1.0 if not self.bytes_in_served else float("inf")
        return self.bytes_in_served / self.bytes_out

    def settle(self, node, request, at: float) -> Tuple[float, bool]:
        """Account one served request's completion on ``node`` at ``at``;
        returns ``(latency, on_time)`` for the caller's window record."""
        node.busy -= 1
        latency = at - request.arrival
        on_time = at <= request.deadline
        node.controller.limiter.on_complete(latency)
        self._latencies.append(latency)
        self._waits.append(request.wait_seconds)
        if on_time:
            self.on_time += 1
            self.bytes_on_time += request.size
        else:
            self.tardy += 1
        return latency, on_time

    def drain(self) -> None:
        """Observe the settled latencies and waits into the two run
        histograms. The simulators call this at every window edge and at
        the end of the run, so the buffers hold one window of completions
        at most and the histograms take every value in event order."""
        self.latency.observe_many(self._latencies, source="all")
        self.wait.observe_many(self._waits, source="all")
        self._latencies.clear()
        self._waits.clear()

    def absorb(self, stats) -> None:
        """Add one node's ``GatewayStats`` to the run totals."""
        self.admitted += stats.admitted
        self.throttled += stats.throttled
        self.shed += stats.shed
        self.expired += stats.expired
        self.served += stats.served
        self.degraded += stats.degraded
        self.raw_fallbacks += stats.raw_fallbacks
        self.bytes_in_served += stats.bytes_in_served
        self.bytes_out += stats.bytes_out


def traffic_lines(report: TrafficReport, shed_rate: str) -> List[str]:
    """The scorecard block both planes print: counter table, latency and
    queue-wait percentiles, goodput. ``shed_rate`` is the plane's own
    definition, already formatted."""
    lines = [
        f"{'arrivals':>10s} {'admitted':>9s} {'throttled':>9s} {'shed':>6s} "
        f"{'expired':>8s} {'served':>7s} {'on-time':>8s} {'tardy':>6s}",
        f"{report.arrivals:10d} {report.admitted:9d} {report.throttled:9d} "
        f"{report.shed:6d} {report.expired:8d} {report.served:7d} "
        f"{report.on_time:8d} {report.tardy:6d}",
        "",
    ]
    for name, hist in (("latency", report.latency), ("queue wait", report.wait)):
        if hist.count(source="all"):
            lines.append(
                f"{name:10s} p50={hist.p50(source='all') * 1e3:9.3f} ms  "
                f"p90={hist.p90(source='all') * 1e3:9.3f} ms  "
                f"p99={hist.p99(source='all') * 1e3:9.3f} ms"
            )
    lines.append(
        f"goodput    {report.goodput_bytes_per_second / 1e6:.3f} MB/s on-time "
        f"({report.bytes_on_time} bytes in {report.makespan_seconds:.3f} s), "
        f"shed rate {shed_rate}"
    )
    return lines

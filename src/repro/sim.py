"""The simulation kernel both simulators run on.

``repro serve-sim`` is ``repro cluster-sim`` at its smallest size: a
cluster of one static node with routing and the control plane off. This
module owns what the two share, once: the event heap and its order
(:class:`EventLoop`), dispatch and completion (:meth:`EventLoop.dispatch`,
:func:`settle`), and the run report's traffic fields
(:class:`TrafficReport`). The alert plane they also share is
:class:`repro.obs.slo.SLOEvaluator`.

Arrivals are streamed: the loop draws each one from the workload as the
one before it pops, so the heap holds the in-flight completions, the
pending control ticks and at most one arrival, and a request is garbage
once its completion has been recorded.

A run has one traffic ledger, its window registry: every verdict, serve
and completion is recorded once into a node's window, and the report's
counts are read off the fold of the closed windows when the run ends.

What a simulator does per event — route or submit an arrival, record a
completion with its window recorder, run a control tick — stays in the
simulator, as one handler per event kind. Nodes are duck-typed
(:class:`repro.serving.node.ServingNode`), so nothing here imports
``repro.serving``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
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
    """A heap of ``(time, kind, seq, node, payload)`` over one clock,
    fed by a stream of arrivals.

    ``arrivals`` is any iterable of requests in non-decreasing
    ``arrival`` order. The heap holds at most one ``ARRIVAL``: the loop
    draws the next one when the pending one pops. The pop order is still
    the ``(time, kind, seq)`` order of a heap that held every arrival from
    the start:

    - arrivals are drawn with non-decreasing time and increasing ``seq``
      (their draw index), so the one in the heap precedes every arrival
      not yet drawn;
    - an arrival never ties a ``DONE`` or ``CONTROL`` event on ``(time,
      kind)``, so ``seq`` only orders events within one kind, and there
      it stays monotonic (``DONE`` and ``CONTROL`` share one counter in
      push order);
    - so whenever an event pops, every event that precedes it is already
      in the heap, and the pop order equals the full heap's.

    :attr:`arrivals` counts the arrivals drawn so far; after :meth:`run`
    it is the run's arrival count.
    """

    def __init__(self, clock: SimClock, arrivals: Iterable) -> None:
        self.clock = clock
        self.last_event_at = 0.0
        self.arrivals = 0
        self._stream = iter(arrivals)
        self._events: List[Tuple[float, int, int, object, object]] = []
        self._seq = 0
        first = next(self._stream, None)
        if first is not None:
            self._events.append((first.arrival, ARRIVAL, 0, None, first))
            self.arrivals = 1

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
        and dispatch the node it returns (None: nothing to dispatch). An
        arrival that pops first puts the next one in the heap."""
        events, clock, dispatch = self._events, self.clock, self.dispatch
        stream, heappush, heappop = self._stream, heapq.heappush, heapq.heappop
        while events:
            at, kind, __, node, payload = heappop(events)
            if kind == ARRIVAL:
                following = next(stream, None)
                if following is not None:
                    heappush(
                        events,
                        (following.arrival, ARRIVAL, self.arrivals, None, following),
                    )
                    self.arrivals += 1
            now = clock.now()
            if at > now:
                clock.advance(at - now)
            advance(at)
            if at > self.last_event_at:
                self.last_event_at = at
            node = handlers[kind](at, node, payload)
            if node is not None:
                dispatch(node, clock.now())


def settle(node, request, at: float) -> Tuple[float, bool]:
    """Free ``node``'s worker for ``request``, completed at ``at``, and feed
    its latency to the node's concurrency limit; returns ``(latency,
    on_time)`` for the caller's window record."""
    node.busy -= 1
    latency = at - request.arrival
    node.controller.limiter.on_complete(latency)
    return latency, at <= request.deadline


@dataclass(kw_only=True)
class TrafficReport:
    """The request accounting every simulated run reports: ``arrivals`` is
    the event loop's count of drawn requests (:attr:`EventLoop.arrivals`),
    every other count is read off :attr:`registry` when the run ends."""

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
    #: every closed window of the run folded into one: the run's traffic
    #: ledger, which the counts above and the scorecard percentiles read
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def read_counts(self, counts: Mapping[str, int]) -> None:
        """Set every count field ``counts`` names (a registry reader's
        output) to its value there."""
        for column in fields(self):
            if column.name in counts:
                setattr(self, column.name, counts[column.name])

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

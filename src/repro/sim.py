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
next control tick and at most one arrival, and a request is garbage
once its completion has been recorded. A caller that wants the settled
requests passes the run a sink (``on_settled``), which :func:`settle`
calls once per request; the run itself keeps none.

A run has one traffic ledger, its window registry: every verdict, serve
and completion is recorded once into a node's window, each window is
folded into the run totals as it closes, and the report's counts are read
off those totals when the run ends, after :func:`check_conservation`.

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


def settle(node, request, at: float, on_settled) -> Tuple[float, bool]:
    """Free ``node``'s worker for ``request``, completed at ``at``, and feed
    its latency to the node's concurrency limit; returns ``(latency,
    on_time)`` for the caller's window record. ``on_settled``, the run's
    settled-request sink, sees the request once, in completion order
    (None: nobody is listening, and nothing keeps it)."""
    node.busy -= 1
    if on_settled is not None:
        on_settled(request)
    latency = at - request.arrival
    node.controller.limiter.on_complete(latency)
    return latency, at <= request.deadline


#: request conservation of a drained run: each left count is the sum of
#: the counts on its right (``traffic_counts`` names, plus ``arrivals``)
_CONSERVED = (
    ("arrivals", ("admitted", "throttled", "shed")),
    ("admitted", ("served", "expired")),
    ("served", ("on_time", "tardy")),
)


def check_conservation(
    arrivals: int,
    counts: Mapping[str, int],
    shards: Sequence[Mapping[str, int]] = (),
) -> None:
    """Raise ``RuntimeError`` naming every broken equality of a drained run.

    ``counts`` is the run's ledger read through ``traffic_counts``:
    every arrival has one verdict, every admitted request was served or
    expired (the heap drained, so nothing is still queued), and every
    serve settled on time or late. ``shards`` are the per-shard counts,
    which must sum to ``counts`` column by column."""
    values = dict(counts, arrivals=arrivals)
    broken = []
    for left, right in _CONSERVED:
        total = sum(values[name] for name in right)
        if values[left] != total:
            broken.append(
                f"{left} == {' + '.join(right)} ({values[left]} != {total})"
            )
    for name in counts if shards else ():
        total = sum(shard[name] for shard in shards)
        if counts[name] != total:
            broken.append(
                f"fleet {name} == sum over shards ({counts[name]} != {total})"
            )
    if broken:
        raise RuntimeError("request conservation broken: " + "; ".join(broken))


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
    #: every closed window of the run folded into one as it closed: the
    #: run's traffic ledger, which the counts above and the scorecard
    #: percentiles read
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

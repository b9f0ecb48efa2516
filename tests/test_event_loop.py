"""The streamed event loop: its pop order, and what its heap holds.

``repro.sim.EventLoop`` keeps at most one ``ARRIVAL`` in its heap and
draws the next arrival when the pending one pops. Its docstring argues
that the pop order is still the ``(time, kind, seq)`` order of a heap that
held every arrival from the start. The Hypothesis oracle below checks that
argument against such a full-heap loop, kept here as the reference, on
arrival streams with equal times, control ticks and completions that tie
an arrival's instant, and zero-service completions. The count test checks
the memory claim on the pinned simulator runs: the heap holds in-flight
completions, pending ticks and one arrival, far fewer entries than the
run has arrivals.
"""

from __future__ import annotations

import collections
import heapq
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sim
from repro.cluster import CLUSTER_SCENARIOS, run_cluster_simulation
from repro.resilience.clock import SimClock
from repro.serving import SCENARIOS, run_simulation
from repro.sim import ARRIVAL, CONTROL, DONE, EventLoop


class _FullHeapLoop:
    """The loop before arrivals were streamed: every arrival is in the
    heap from the start with ``seq`` 0..N-1, and everything pushed later
    takes ``seq`` N, N+1, ..."""

    def __init__(self, clock: SimClock, requests) -> None:
        self.clock = clock
        self.last_event_at = 0.0
        self._events = [
            (request.arrival, ARRIVAL, seq, None, request)
            for seq, request in enumerate(requests)
        ]
        self._seq = len(self._events)
        heapq.heapify(self._events)

    def schedule(self, at: float, kind: int) -> None:
        heapq.heappush(self._events, (at, kind, self._seq, None, None))
        self._seq += 1

    def dispatch(self, node, now: float) -> None:
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

    def run(self, advance, handlers) -> None:
        events, clock = self._events, self.clock
        while events:
            at, kind, __, node, payload = heapq.heappop(events)
            now = clock.now()
            if at > now:
                clock.advance(at - now)
            advance(at)
            self.last_event_at = max(self.last_event_at, at)
            node = handlers[kind](at, node, payload)
            if node is not None:
                self.dispatch(node, clock.now())


class _Job:
    """An arrival, and later the completion ``dispatch`` schedules."""

    __slots__ = ("ident", "arrival", "service_seconds")

    def __init__(self, ident: int, arrival: float, service_seconds: float):
        self.ident = ident
        self.arrival = arrival
        self.service_seconds = service_seconds


class _Node:
    """What ``EventLoop.dispatch`` reads of a node: a worker width, a busy
    count and a gateway whose ``serve_batch`` hands out queued jobs."""

    def __init__(self, workers: int) -> None:
        self.busy = 0
        self.config = SimpleNamespace(workers=workers)
        self.controller = SimpleNamespace(concurrency=lambda width: width)
        self.queue = collections.deque()
        self.gateway = SimpleNamespace(serve_batch=self._serve_batch)

    def _serve_batch(self, now: float, width: int):
        served = []
        while self.queue and len(served) < width:
            served.append(self.queue.popleft())
        return served


class _HeapWatch:
    """Stands in for ``repro.sim``'s ``heapq``: after every push it reads
    how many entries of each kind the heap holds."""

    def __init__(self) -> None:
        self.peak = 0
        self.most = collections.Counter()
        self.pushes = collections.Counter()

    def heappush(self, heap, item) -> None:
        heapq.heappush(heap, item)
        self.pushes[item[1]] += 1
        self.peak = max(self.peak, len(heap))
        for kind, count in collections.Counter(e[1] for e in heap).items():
            self.most[kind] = max(self.most[kind], count)

    heappop = staticmethod(heapq.heappop)


def _drive(loop_class, times, services, ticks, workers):
    """Run one loop over the jobs; returns its pop sequence and itself."""
    jobs = [
        _Job(ident, at, service)
        for ident, (at, service) in enumerate(zip(times, services))
    ]
    node = _Node(workers)
    loop = loop_class(SimClock(), iter(jobs))
    for at in ticks:
        loop.schedule(at, CONTROL)
    popped = []

    def on_done(at, done_node, job):
        popped.append((at, DONE, job.ident))
        done_node.busy -= 1
        return done_node

    def on_arrival(at, __, job):
        popped.append((at, ARRIVAL, job.ident))
        node.queue.append(job)
        return node

    def on_control(at, __, ___):
        popped.append((at, CONTROL, None))
        return node

    loop.run(lambda at: None, (on_done, on_arrival, on_control))
    return popped, loop


#: instants on a coarse grid, so arrivals, completions and ticks tie often
_INSTANT = st.integers(0, 8).map(lambda step: step * 0.25)


@settings(max_examples=300, deadline=None)
@given(
    times=st.lists(_INSTANT, max_size=40).map(sorted),
    services=st.lists(st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0)), min_size=40),
    ticks=st.lists(_INSTANT, max_size=8),
    workers=st.integers(1, 3),
)
def test_streamed_pop_order_equals_the_full_heap(times, services, ticks, workers):
    expected, reference = _drive(_FullHeapLoop, times, services, ticks, workers)
    watch = _HeapWatch()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "heapq", watch)
        popped, loop = _drive(EventLoop, times, services, ticks, workers)
    assert popped == expected
    assert len(popped) == 2 * len(times) + len(ticks)
    assert loop.arrivals == len(times)
    assert loop.last_event_at == reference.last_event_at
    assert watch.most[ARRIVAL] <= 1


def test_empty_stream_runs_the_ticks_alone():
    popped, loop = _drive(EventLoop, [], [], [0.5, 0.0], 1)
    assert popped == [(0.0, CONTROL, None), (0.5, CONTROL, None)]
    assert loop.arrivals == 0


@pytest.mark.parametrize(
    "plane,scenario,scale",
    [("serve", "overload", 0.1), ("cluster", "fleet-surge", 0.25)],
)
def test_heap_holds_what_is_in_flight_not_the_run(monkeypatch, plane, scenario, scale):
    watch = _HeapWatch()
    monkeypatch.setattr(sim, "heapq", watch)
    if plane == "serve":
        report = run_simulation(scenario, seed=7, scale=scale)
        workers = SCENARIOS[scenario].node.workers
        nodes = 1
    else:
        report = run_cluster_simulation(scenario, seed=7, scale=scale)
        workers = CLUSTER_SCENARIOS[scenario].node.workers
        nodes = len(report.shards)
    # the arrival in the heap is the only one drawn and not yet handled
    assert watch.most[ARRIVAL] == 1
    assert watch.pushes[ARRIVAL] == report.arrivals - 1
    # a node never has more completions pending than workers
    assert 0 < watch.most[DONE] <= workers * nodes
    assert watch.peak <= watch.most[DONE] + watch.most[CONTROL] + 1
    # 3 entries for 98 arrivals (serve), 21 for 1,226 (cluster): a full
    # heap held every arrival plus every tick
    assert watch.peak * 10 < report.arrivals

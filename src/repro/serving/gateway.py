"""The CompressionGateway: the serving plane's data path.

One object ties the traffic plane together: requests come in through the
:class:`~repro.serving.admission.AdmissionController` (explicit
admit/throttle/shed verdicts), wait in the weighted-fair
:class:`~repro.serving.queue.FairQueue`, are stepped down the
:class:`~repro.serving.degrade.DegradationLadder` under queue pressure,
and are finally compressed — on a :mod:`repro.parallel` executor, behind
a per-algorithm :class:`~repro.resilience.breaker.CircuitBreaker` that
trades a failing codec for the raw-passthrough path instead of erroring.

Time is always the simulated clock: service durations are *modeled* from
the codec's stage counters through the calibrated machine model, exactly
as the chaos runner models recovery latency, so a gateway driven by the
discrete-event simulator renders byte-identical results per seed.

Telemetry is the window registry: a gateway given a ``recorder`` appends
every verdict and serve to its current window's pending records
(``record_window_*``; the recorder folds them into the registry when the
window closes or is read); without one it pays a single ``is not None``
branch per event. The recorder is also the only count of what the gateway
did: :class:`GatewayStats` keeps just the first degrade and shed times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.codecs import Compressor, get_codec
from repro.codecs.base import CodecError, StageCounters
from repro.parallel.executors import SerialExecutor
from repro.perfmodel import DEFAULT_MACHINE
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import SimClock
from repro.serving.admission import ADMIT, SHED, AdmissionController
from repro.serving.degrade import DegradationLadder, Rung
from repro.serving.queue import FairQueue, ServingRequest
from repro.serving.slos import (
    WindowRecorder,
    record_window_served,
    record_window_verdict,
)

#: modeled memcpy bandwidth of the raw-passthrough path (bytes/second)
RAW_COPY_BANDWIDTH = 8e9
#: modeled fixed cost per served request (dispatch, framing, bookkeeping)
OVERHEAD_SECONDS = 20e-6


@dataclass
class GatewayStats:
    """When the gateway first degraded and first shed. Counts are not kept
    here: every verdict and serve goes to the window recorder, the one
    traffic ledger (``serving.slos.traffic_counts`` reads it)."""

    #: simulated time of the first degraded dispatch / first shed verdict
    first_degraded_at: Optional[float] = None
    first_shed_at: Optional[float] = None


def _compress(
    codec: Compressor, level: int, payload: bytes
) -> Tuple[int, StageCounters, str]:
    """One compression as ``(bytes_out, counters, error)``; a codec error
    comes back as a string, never raised."""
    try:
        result = codec.compress(payload, level)
    except (CodecError, ValueError) as error:
        return 0, StageCounters(), f"{type(error).__name__}: {error}"
    return len(result.data), result.counters, ""


def _compress_task(task: Tuple[str, int, bytes]) -> Tuple[int, StageCounters, str]:
    """Pool-safe compression worker: :func:`_compress` on the registry
    codec. Module-level and dependent only on its arguments, per the
    :mod:`repro.parallel.executors` contract; errors travel back as
    strings because exceptions must not kill the pool.
    """
    algorithm, level, payload = task
    return _compress(get_codec(algorithm), level, payload)


class CodecCache:
    """Memo of ``(algorithm, level, payload)`` -> :func:`_compress_task`
    result, shared by every gateway it is handed to.

    Workload generators draw payloads from finite per-tenant pools, so a
    fleet-scale run would otherwise pay O(requests) real compressions
    for information the first one already produced. The stage counters
    are part of the memoized result, so a repeat bills the same modeled
    service seconds as the original and modeled time is unaffected.
    """

    def __init__(self) -> None:
        self._results: Dict[
            Tuple[str, int, bytes], Tuple[int, StageCounters, str]
        ] = {}
        self.hits = 0
        self.misses = 0

    def map(self, executor, tasks: Sequence[Tuple[str, int, bytes]]) -> list:
        """``executor.map(_compress_task, tasks)``, computing only tasks
        never seen before (a repeat inside ``tasks`` counts as a hit);
        failures are not remembered."""
        results = self._results
        out = [results.get(task) for task in tasks]
        if None not in out:  # the common case at fleet scale: all repeats
            self.hits += len(out)
            return out
        missing = list(
            dict.fromkeys(t for t, r in zip(tasks, out) if r is None)
        )
        fresh = dict(zip(missing, executor.map(_compress_task, missing)))
        self.misses += len(missing)
        self.hits += len(tasks) - len(missing)
        results.update((t, r) for t, r in fresh.items() if not r[2])
        return [r if r is not None else fresh[t] for t, r in zip(tasks, out)]


class CompressionGateway:
    """Admission-controlled, degradation-aware compression service."""

    def __init__(
        self,
        ladder: DegradationLadder,
        capacity: int = 64,
        admission: Optional[AdmissionController] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
        clock: Optional[SimClock] = None,
        executor=None,
        codec_factory: Optional[Callable[[str], Compressor]] = None,
        codec_cache: Optional[CodecCache] = None,
        degradation_enabled: bool = True,
        service_scale: float = 1.0,
        breaker_failure_threshold: int = 3,
        breaker_cooldown_seconds: float = 0.05,
        recorder: Optional[WindowRecorder] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.ladder = ladder
        self.capacity = capacity
        self.clock = clock if clock is not None else SimClock()
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.queue = FairQueue(capacity=capacity, weights=tenant_weights)
        self.executor = executor if executor is not None else SerialExecutor()
        self.degradation_enabled = degradation_enabled
        if service_scale <= 0:
            raise ValueError("service_scale must be positive")
        #: modeled host-contention factor: the serving host's effective
        #: throughput is 1/scale of the calibrated bare-metal machine
        #: model (co-located tenants, frequency caps, cold caches)
        self.service_scale = service_scale
        #: optional window recorder; when set, verdicts and serves land
        #: in its current window (the driver owns advancing time).
        #: One ``is not None`` branch per event when absent.
        self.recorder = recorder
        self.stats = GatewayStats()
        #: custom codec factories (fault injection) force in-process calls
        #: and, being stateful, bypass the cache
        self._custom_codecs = codec_factory is not None
        self.codec_cache = codec_cache
        factory = codec_factory if codec_factory is not None else get_codec
        #: task -> its modeled compress seconds, for tasks whose
        #: result came through ``codec_cache``
        self._modeled_seconds: Dict[Tuple[str, int, bytes], float] = {}
        #: each rung's label, formatted once rather than per served request
        self._rung_labels = ladder.labels()
        self._codecs: Dict[str, Compressor] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        for rung in ladder.rungs:
            algorithm = rung.config.algorithm
            if algorithm not in self._codecs:
                self._codecs[algorithm] = factory(algorithm)
                self._breakers[algorithm] = CircuitBreaker(
                    f"serving-{algorithm}",
                    failure_threshold=breaker_failure_threshold,
                    cooldown_seconds=breaker_cooldown_seconds,
                    clock=self.clock,
                )

    # -- pressure -----------------------------------------------------------

    @property
    def pressure(self) -> float:
        """Queue occupancy in [0, 1]: the degradation/shed driver."""
        return self.queue.depth() / self.capacity

    def breaker(self, algorithm: str) -> CircuitBreaker:
        return self._breakers[algorithm]

    # -- ingress ------------------------------------------------------------

    def submit(self, request: ServingRequest) -> str:
        """Offer one request; admitted requests are queued. Returns the
        decision: ``ADMIT``, ``THROTTLE``, or ``SHED`` (the admission
        controller's, or a full tenant lane)."""
        decision = self.admission.admit(self.queue.depth(), self.capacity)
        if decision == ADMIT and not self.queue.offer(request):
            decision = SHED
        if decision == SHED and self.stats.first_shed_at is None:
            self.stats.first_shed_at = self.clock.now()
        if self.recorder is not None:
            record_window_verdict(self.recorder, request.tenant, decision)
        return decision

    # -- egress -------------------------------------------------------------

    def serve_batch(self, now: float, max_count: int) -> List[ServingRequest]:
        """Dequeue up to ``max_count`` requests and compress them; returns
        the dequeued request objects themselves, each with its outcome
        fields written.

        The rung is chosen per request from the pressure *at dequeue time*
        (the queue drains as the batch forms, so a deep queue degrades its
        head harder than its tail). Compression itself runs through the
        executor; breaker accounting happens in the parent, mirroring how
        the parallel engine stitches worker telemetry.
        """
        plans: List[Tuple[ServingRequest, int, Rung, float, bool]] = []
        while len(plans) < max_count:
            request, expired = self.queue.poll(now)
            if self.recorder is not None:
                for dropped in expired:
                    record_window_verdict(self.recorder, dropped.tenant, "expired")
            if request is None:
                break
            rung_index = (
                self.ladder.select(self.pressure)
                if self.degradation_enabled
                else 0
            )
            rung = self.ladder.rung(rung_index)
            allowed = self._breakers[rung.config.algorithm].allow()
            plans.append((request, rung_index, rung, now - request.arrival, allowed))
        return self._execute(plans)

    def _execute(
        self, plans: Sequence[Tuple[ServingRequest, int, Rung, float, bool]]
    ) -> List[ServingRequest]:
        tasks = [
            (rung.config.algorithm, rung.config.level, request.payload)
            for request, __, rung, __, allowed in plans
            if allowed
        ]
        through_cache = False
        if self._custom_codecs:
            # injected codecs are stateful and unpicklable: run in-process
            results = [
                _compress(self._codecs[algorithm], level, payload)
                for algorithm, level, payload in tasks
            ]
        elif self.codec_cache is not None:
            results = self.codec_cache.map(self.executor, tasks)
            through_cache = True
        else:
            results = self.executor.map(_compress_task, tasks)
        #: one (task, result) per allowed plan, in plan order
        outcomes = zip(tasks, results)
        served: List[ServingRequest] = []
        for request, rung_index, rung, wait, allowed in plans:
            algorithm = rung.config.algorithm
            rung_label = self._rung_labels[rung_index]
            size = request.size
            raw = not allowed
            if allowed:
                task, (bytes_out, counters, error) = next(outcomes)
                breaker = self._breakers[algorithm]
                if error:
                    breaker.record_failure()
                    raw = True
                else:
                    breaker.record_success()
                    # Modeled seconds are a function of the task alone.
                    # Remember them only for tasks the codec cache holds:
                    # it already pins those payloads, a memo on the other
                    # paths would retain every payload ever served.
                    seconds = (
                        self._modeled_seconds.get(task) if through_cache else None
                    )
                    if seconds is None:
                        seconds = DEFAULT_MACHINE.compress_seconds(algorithm, counters)
                        if through_cache:
                            self._modeled_seconds[task] = seconds
                    service = seconds * self.service_scale + OVERHEAD_SECONDS
            if raw:
                bytes_out = size
                service = (
                    size / RAW_COPY_BANDWIDTH * self.service_scale
                    + OVERHEAD_SECONDS
                )
            request.rung_index = rung_index
            request.rung_label = rung_label
            request.wait_seconds = wait
            request.service_seconds = service
            request.bytes_out = bytes_out
            request.raw_fallback = raw
            served.append(request)
            if rung_index > 0 and self.stats.first_degraded_at is None:
                self.stats.first_degraded_at = self.clock.now()
            if self.recorder is not None:
                record_window_served(
                    self.recorder,
                    request.tenant,
                    rung_label,
                    degraded=rung_index > 0,
                    raw_fallback=raw,
                    bytes_in=size,
                    bytes_out=bytes_out,
                )
        return served

"""The CompressionGateway: the serving plane's data path.

One object ties the traffic plane together: requests come in through the
:class:`~repro.serving.admission.AdmissionController` (explicit
admit/throttle/shed verdicts), wait in the weighted-fair
:class:`~repro.serving.queue.FairQueue`, are stepped down the
:class:`~repro.serving.degrade.DegradationLadder` under queue pressure,
and are finally compressed in-process by the gateway's own codecs, behind
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
from typing import Dict, List, Optional, Tuple

from repro.codecs.base import Compressor, get_codec
from repro.codecs.base import CodecError
from repro.faults.plan import FaultInjector
from repro.faults.wrappers import FaultyCodec
from repro.perfmodel.machine import DEFAULT_MACHINE
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import SimClock
from repro.serving.admission import ADMIT, SHED, AdmissionController
from repro.serving.degrade import DegradationLadder
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
#: consecutive codec failures that open an algorithm's breaker, and the
#: simulated seconds it stays open before one trial request
BREAKER_FAILURE_THRESHOLD = 3
BREAKER_COOLDOWN_SECONDS = 0.05


@dataclass
class GatewayStats:
    """When the gateway first degraded and first shed. Counts are not kept
    here: every verdict and serve goes to the window recorder, the one
    traffic ledger (``serving.slos.traffic_counts`` reads it)."""

    #: simulated time of the first degraded dispatch / first shed verdict
    first_degraded_at: Optional[float] = None
    first_shed_at: Optional[float] = None


#: one compression task: ``(algorithm, level, payload)``
_Task = Tuple[str, int, bytes]
#: a task's outcome: ``(bytes_out, modeled_seconds, error)``
_Outcome = Tuple[int, float, str]


def _compress(codec: Compressor, task: _Task) -> _Outcome:
    """One compression as ``(bytes_out, modeled_seconds, error)``, the
    seconds priced from the task's algorithm; a codec error comes back as
    a string, never raised."""
    algorithm, level, payload = task
    try:
        result = codec.compress(payload, level)
    except (CodecError, ValueError) as error:
        return 0, 0.0, f"{type(error).__name__}: {error}"
    seconds = DEFAULT_MACHINE.compress_seconds(algorithm, result.counters)
    return len(result.data), seconds, ""


class CodecCache:
    """Memo of ``(algorithm, level, payload)`` -> :func:`_compress` result,
    shared by every gateway it is handed to.

    Workload generators draw payloads from finite per-tenant pools, so a
    fleet-scale run would otherwise pay O(requests) real compressions
    for information the first one already produced. The modeled seconds
    are part of the memoized result, so a repeat bills the same service
    time as the original and modeled time is unaffected.
    """

    def __init__(self) -> None:
        self._results: Dict[_Task, _Outcome] = {}
        self.hits = 0
        self.misses = 0

    def compress(self, codec: Compressor, task: _Task) -> _Outcome:
        """``_compress(codec, task)``, computed only for a task never seen
        before; failures are not remembered."""
        outcome = self._results.get(task)
        if outcome is not None:
            self.hits += 1
            return outcome
        self.misses += 1
        outcome = _compress(codec, task)
        if not outcome[2]:
            self._results[task] = outcome
        return outcome


class CompressionGateway:
    """Admission-controlled, degradation-aware compression service."""

    def __init__(
        self,
        ladder: DegradationLadder,
        capacity: int = 64,
        admission: Optional[AdmissionController] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
        clock: Optional[SimClock] = None,
        faults: Optional[FaultInjector] = None,
        codec_cache: Optional[CodecCache] = None,
        degradation_enabled: bool = True,
        service_scale: float = 1.0,
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
        #: codecs wrapped for fault injection are stateful, so a faulted
        #: gateway takes no cache
        self.codec_cache = codec_cache if faults is None else None
        #: each rung's label, formatted once rather than per served request
        self._rung_labels = ladder.labels()
        self._codecs: Dict[str, Compressor] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        for rung in ladder.rungs:
            algorithm = rung.config.algorithm
            if algorithm not in self._codecs:
                codec = get_codec(algorithm)
                if faults is not None:
                    codec = FaultyCodec(codec, faults, clock=self.clock)
                self._codecs[algorithm] = codec
                self._breakers[algorithm] = CircuitBreaker(
                    f"serving-{algorithm}",
                    failure_threshold=BREAKER_FAILURE_THRESHOLD,
                    cooldown_seconds=BREAKER_COOLDOWN_SECONDS,
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
        """Dequeue up to ``max_count`` requests and serve each in turn;
        returns the dequeued request objects themselves, each with its
        outcome fields written.

        One pass per request: the rung is chosen from the pressure *at
        dequeue time* (the queue drains as the batch forms, so a deep queue
        degrades its head harder than its tail), the breaker rules, the
        codec runs and the outcome is written, so the breaker has seen
        this request's outcome before the next request's ``allow()``.
        """
        compress = (
            self.codec_cache.compress if self.codec_cache is not None else _compress
        )
        served: List[ServingRequest] = []
        while len(served) < max_count:
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
            config = self.ladder.rungs[rung_index].config
            algorithm = config.algorithm
            breaker = self._breakers[algorithm]
            size = request.size
            raw = True
            if breaker.allow():
                bytes_out, seconds, error = compress(
                    self._codecs[algorithm],
                    (algorithm, config.level, request.payload),
                )
                if error:
                    breaker.record_failure()
                else:
                    breaker.record_success()
                    raw = False
                    service = seconds * self.service_scale + OVERHEAD_SECONDS
            if raw:
                bytes_out = size
                service = (
                    size / RAW_COPY_BANDWIDTH * self.service_scale
                    + OVERHEAD_SECONDS
                )
            rung_label = self._rung_labels[rung_index]
            request.rung_index = rung_index
            request.rung_label = rung_label
            request.wait_seconds = now - request.arrival
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

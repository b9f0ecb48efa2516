"""One serving node: a gateway, its front door, and its telemetry.

Both simulators serve traffic through this object: ``serve-sim`` builds
exactly one, the cluster one per shard with a lifecycle on top
(:class:`repro.cluster.node.ClusterNode`). It holds what the event loop
(:mod:`repro.sim`) needs to dispatch and settle a request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults.plan import FaultInjector
from repro.obs.timeseries import WindowSnapshot
from repro.resilience.clock import SimClock
from repro.serving.admission import (
    AdaptiveConcurrencyLimit,
    AdmissionController,
    TokenBucket,
)
from repro.serving.degrade import DegradationLadder
from repro.serving.gateway import CodecCache, CompressionGateway
from repro.serving.slos import WindowRecorder


@dataclass(frozen=True)
class NodeConfig:
    """Per-node sizing — every node in a cluster scenario is identical,
    which is what makes scale-up a pure capacity statement."""

    workers: int = 2
    #: fair-queue depth; pressure = depth / capacity drives both the
    #: degradation ladder and the autoscaler, so overload surfaces as
    #: queue growth well before anything sheds
    capacity: int = 48
    #: admission token bucket (requests/second, burst); the defaults
    #: never bind in the built-in cluster scenarios — the cluster's load
    #: signal is the queue, not a rate limiter in front of it
    token_rate: float = 2000.0
    token_burst: float = 256.0
    #: adaptive-concurrency latency target, seconds
    target_latency: float = 0.2
    #: modeled host-contention factor (see CompressionGateway.service_scale)
    service_scale: float = 400.0


class ServingNode:
    """Gateway + admission + recorder + the in-service count."""

    def __init__(
        self,
        ladder: DegradationLadder,
        config: NodeConfig,
        clock: SimClock,
        window_seconds: float,
        tenant_weights: Optional[Dict[str, float]] = None,
        codec_cache: Optional[CodecCache] = None,
        degradation_enabled: bool = True,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config
        #: in-service request count (the event loop's busy tracker)
        self.busy = 0
        self.controller = AdmissionController(
            bucket=TokenBucket(config.token_rate, config.token_burst, clock),
            limiter=AdaptiveConcurrencyLimit(
                target_latency=config.target_latency,
                initial=float(config.workers),
                maximum=float(config.workers * 4),
            ),
        )
        # Windows start at time 0 regardless of when the node joined: a
        # late joiner's first advance() closes the empty history, keeping
        # window index == fleet window index.
        self.recorder = WindowRecorder(window_seconds)
        self.gateway = CompressionGateway(
            ladder,
            capacity=config.capacity,
            admission=self.controller,
            tenant_weights=tenant_weights,
            clock=clock,
            codec_cache=codec_cache,
            degradation_enabled=degradation_enabled,
            service_scale=config.service_scale,
            recorder=self.recorder,
            faults=faults,
        )

    def advance_windows(self, now: float) -> List[WindowSnapshot]:
        """Close any windows ``now`` has passed; lockstep with the run. The
        node keeps none of them: the caller folds what this returns."""
        return self.recorder.advance(now)

    def flush_windows(self) -> List[WindowSnapshot]:
        """Close the in-progress window at end of run: ``[tail]``, or ``[]``
        when it holds nothing."""
        tail = self.recorder.flush()
        return [] if tail is None else [tail]

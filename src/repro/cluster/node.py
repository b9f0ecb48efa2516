"""One shard of the cluster: a serving node plus its lifecycle.

A :class:`ClusterNode` is the :class:`~repro.serving.node.ServingNode`
``serve-sim`` runs alone — gateway, admission controller, recorder — with
the two things only a fleet member needs:

- a **lifecycle**: ``active`` (on the ring, taking traffic) →
  ``draining`` (off the ring, finishing its queue) → ``retired``
  (empty and idle; accounted but inert). Draining before retiring is
  what makes scale-down safe: an admitted request is never stranded by
  the autoscaler, only finished or deadline-expired by the queue's own
  rules.
- **per-shard telemetry that folds**: every node's recorder shares the
  fleet's window epoch, so per-shard windows align by index and fold
  into fleet windows via :func:`repro.obs.rollup.merge_shard_windows`,
  and into the shard's own running :attr:`ClusterNode.total` as they
  close. Nothing is recorded twice; the fleet view is always a merge.

Compression cost stays real — payloads run through the actual codecs —
but every node's gateway shares the fleet's
:class:`~repro.serving.gateway.CodecCache`, so an identical payload is
compressed once per run.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.plan import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.resilience.clock import SimClock
from repro.serving.degrade import DegradationLadder
from repro.serving.gateway import CodecCache
from repro.serving.node import NodeConfig, ServingNode
from repro.serving.queue import ServingRequest

#: lifecycle states
ACTIVE = "active"
DRAINING = "draining"
RETIRED = "retired"


class ClusterNode(ServingNode):
    """One shard: a serving node + peak queue depth + lifecycle."""

    def __init__(
        self,
        name: str,
        ladder: DegradationLadder,
        config: NodeConfig,
        clock: SimClock,
        window_seconds: float,
        tenant_weights: Optional[Dict[str, float]] = None,
        codec_cache: Optional[CodecCache] = None,
        created_at: float = 0.0,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(
            ladder,
            config,
            clock,
            window_seconds,
            tenant_weights=tenant_weights,
            codec_cache=codec_cache,
            faults=faults,
        )
        self.name = name
        self.status = ACTIVE
        self.created_at = created_at
        self.retired_at: Optional[float] = None
        self.peak_depth = 0
        #: this shard's closed windows, folded in close order as they close
        self.total = MetricsRegistry()

    # -- traffic -------------------------------------------------------------

    def submit(self, request: ServingRequest) -> str:
        """The gateway's decision for ``request``, which the node's window
        records whether admitted or not: its arrival verdicts are what the
        router sent here."""
        decision = self.gateway.submit(request)
        depth = self.gateway.queue.depth()
        if depth > self.peak_depth:
            self.peak_depth = depth
        return decision

    # -- signals -------------------------------------------------------------

    @property
    def pressure(self) -> float:
        return self.gateway.pressure

    def queued(self) -> int:
        return self.gateway.queue.depth()

    def idle(self) -> bool:
        return self.queued() == 0 and self.busy == 0

    # -- lifecycle -----------------------------------------------------------

    def start_drain(self) -> None:
        if self.status != ACTIVE:
            raise ValueError(f"cannot drain node in state {self.status!r}")
        self.status = DRAINING

    def retire(self, at: float) -> None:
        if self.status != DRAINING:
            raise ValueError(f"cannot retire node in state {self.status!r}")
        if not self.idle():
            raise ValueError(f"node {self.name!r} still has work queued")
        self.status = RETIRED
        self.retired_at = at

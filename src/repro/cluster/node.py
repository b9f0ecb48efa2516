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
  into fleet windows via :func:`repro.obs.rollup.merge_shard_windows`.
  Nothing is recorded twice; the fleet view is always a merge.

Compression cost stays real — payloads run through the actual codecs —
but the cluster memoizes ``(algorithm, level, payload)`` results in a
fleet-shared :class:`CodecCache`, because the workload generator draws
payloads from finite per-tenant pools and recompressing an identical
payload on every hit would make O(10⁵)-request runs pay O(10⁵) real
compressions for information the first one already produced. A cached
serve bills the same modeled service seconds as the original (counters
are part of the cached result), so modeled time is unaffected.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.codecs import Compressor, get_codec
from repro.resilience.clock import SimClock
from repro.serving.admission import AdmissionVerdict
from repro.serving.degrade import DegradationLadder
from repro.serving.node import NodeConfig, ServingNode
from repro.serving.queue import ServingRequest

#: lifecycle states
ACTIVE = "active"
DRAINING = "draining"
RETIRED = "retired"


class CodecCache:
    """Fleet-shared memo of ``(algorithm, level, payload) -> result``."""

    def __init__(self) -> None:
        self._results: Dict[Tuple[str, int, bytes], object] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, algorithm: str, level: int, payload: bytes):
        return self._results.get((algorithm, level, payload))

    def store(self, algorithm: str, level: int, payload: bytes, result) -> None:
        self._results[(algorithm, level, payload)] = result


class _MemoCodec:
    """A real codec behind the fleet cache; duck-types ``Compressor``."""

    def __init__(self, inner: Compressor, cache: CodecCache) -> None:
        self._inner = inner
        self._cache = cache
        self.name = inner.name

    def compress(self, payload: bytes, level: Optional[int] = None):
        result = self._cache.lookup(self.name, level, payload)
        if result is not None:
            self._cache.hits += 1
            return result
        self._cache.misses += 1
        result = self._inner.compress(payload, level)
        self._cache.store(self.name, level, payload, result)
        return result


def memo_codec_factory(cache: CodecCache) -> Callable[[str], Compressor]:
    return lambda name: _MemoCodec(get_codec(name), cache)


class ClusterNode(ServingNode):
    """One shard: a serving node + routing counters + lifecycle."""

    def __init__(
        self,
        name: str,
        ladder: DegradationLadder,
        config: NodeConfig,
        clock: SimClock,
        tenant_weights: Optional[Dict[str, float]] = None,
        window_seconds: Optional[float] = None,
        codec_factory: Optional[Callable[[str], Compressor]] = None,
        executor=None,
        created_at: float = 0.0,
    ) -> None:
        super().__init__(
            ladder,
            config,
            clock,
            tenant_weights=tenant_weights,
            window_seconds=window_seconds,
            codec_factory=codec_factory,
            executor=executor,
        )
        self.name = name
        self.status = ACTIVE
        self.created_at = created_at
        self.retired_at: Optional[float] = None
        #: requests the router sent here (admitted or not)
        self.routed = 0
        self.peak_depth = 0

    # -- traffic -------------------------------------------------------------

    def submit(self, request: ServingRequest) -> AdmissionVerdict:
        self.routed += 1
        verdict = self.gateway.submit(request)
        depth = self.gateway.queue.depth()
        if depth > self.peak_depth:
            self.peak_depth = depth
        return verdict

    # -- signals -------------------------------------------------------------

    @property
    def pressure(self) -> float:
        return self.gateway.pressure

    def queued(self) -> int:
        return self.gateway.queue.depth()

    def idle(self) -> bool:
        return self.queued() == 0 and self.busy == 0

    # -- lifecycle -----------------------------------------------------------

    def start_drain(self, at: float) -> None:
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

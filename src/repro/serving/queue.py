"""Bounded per-tenant request queues with weighted-fair dequeue.

The gateway's traffic plane is multi-tenant by construction: the paper's
fleet is "many services sharing one compression substrate", and a shared
queue with FIFO order would let one bursty tenant starve everyone else.
:class:`FairQueue` implements the classic virtual-time weighted-fair
queueing discipline over per-tenant FIFO lanes:

- each tenant owns a bounded deque (``capacity`` requests); an offer to a
  full lane is rejected, which the admission layer reports as a shed;
- every enqueued request is stamped with a *finish tag*
  ``max(V, last_tag[tenant]) + size / weight`` where ``V`` is the queue's
  virtual time; dequeue always takes the head-of-line request with the
  smallest tag (ties broken by tenant name, then sequence number, so the
  order is a pure function of the offered traffic);
- requests whose deadline has passed by dequeue time are dropped at the
  head, never served late-and-useless (deadline-based drops).

Everything is deterministic: no wall clock, no randomness — time is
whatever the caller (ultimately :class:`~repro.resilience.clock.SimClock`
or the simulator's event clock) passes in.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple


@dataclass(slots=True)
class ServingRequest:
    """One compression request offered to the gateway, and its outcome.

    The request is its own record: the gateway that dequeues it writes the
    six outcome fields when it serves it, and ``serve_batch`` hands back
    this same object.
    """

    request_id: int
    tenant: str
    payload: bytes
    #: simulated arrival time, seconds
    arrival: float
    #: absolute deadline on the simulated clock; ``inf`` = none
    deadline: float = math.inf
    # -- the outcome, written by the serving gateway --
    rung_index: int = field(default=0, init=False)
    rung_label: str = field(default="", init=False)
    #: seconds spent queued before dispatch
    wait_seconds: float = field(default=0.0, init=False)
    #: modeled seconds of service (compression or raw copy + overhead)
    service_seconds: float = field(default=0.0, init=False)
    bytes_out: int = field(default=0, init=False)
    #: True when the breaker or a codec failure forced raw passthrough
    raw_fallback: bool = field(default=False, init=False)

    @property
    def size(self) -> int:
        return len(self.payload)

    @property
    def degraded(self) -> bool:
        return self.rung_index > 0


#: one queued request: ``(tag, tenant, seq, request)``; ``seq`` is unique,
#: so comparing two entries never reaches the request
_Queued = Tuple[float, str, int, ServingRequest]


class FairQueue:
    """Weighted-fair queue over bounded per-tenant lanes."""

    def __init__(
        self,
        capacity: int = 64,
        weights: Optional[Dict[str, float]] = None,
        default_weight: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("per-tenant capacity must be at least 1")
        if default_weight <= 0:
            raise ValueError("default_weight must be positive")
        self.capacity = capacity
        self.default_weight = default_weight
        self.weights = dict(weights or {})
        for tenant, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"tenant {tenant!r} weight must be positive")
        self._lanes: Dict[str, Deque[_Queued]] = {}
        #: queued requests over all lanes
        self._depth = 0
        self._last_tag: Dict[str, float] = {}
        self._virtual = 0.0
        self._seq = 0

    # -- sizing -------------------------------------------------------------

    def depth(self, tenant: Optional[str] = None) -> int:
        """Queued requests, total or for one tenant."""
        if tenant is not None:
            lane = self._lanes.get(tenant)
            return len(lane) if lane else 0
        return self._depth

    def __len__(self) -> int:
        return self.depth()

    def tenants(self) -> List[str]:
        return sorted(t for t, lane in self._lanes.items() if lane)

    # -- enqueue ------------------------------------------------------------

    def weight_of(self, tenant: str) -> float:
        return self.weights.get(tenant, self.default_weight)

    def offer(self, request: ServingRequest) -> bool:
        """Enqueue; False means the tenant's lane is full (caller sheds)."""
        lane = self._lanes.setdefault(request.tenant, deque())
        if len(lane) >= self.capacity:
            return False
        weight = self.weight_of(request.tenant)
        start = max(self._virtual, self._last_tag.get(request.tenant, 0.0))
        # cost is bytes / weight: a heavy payload occupies a tenant's share
        # for proportionally longer, exactly as WFQ serves bit-by-bit
        tag = start + max(1, request.size) / weight
        self._last_tag[request.tenant] = tag
        lane.append((tag, request.tenant, self._seq, request))
        self._seq += 1
        self._depth += 1
        return True

    # -- dequeue ------------------------------------------------------------

    def poll(
        self, now: float
    ) -> Tuple[Optional[ServingRequest], List[ServingRequest]]:
        """Next request by fair order, plus any deadline-expired drops.

        Expired head-of-line requests (``deadline < now``) are removed and
        returned in the second slot so the gateway can account for them;
        they are never handed out for service.
        """
        expired: List[ServingRequest] = []
        while self._depth:
            # (tag, tenant, seq) is a total order, so the head-of-line
            # minimum does not depend on the order the lanes are visited
            best: Optional[_Queued] = None
            for lane in self._lanes.values():
                if lane and (best is None or lane[0] < best):
                    best = lane[0]
            tag, tenant, __, request = best
            self._lanes[tenant].popleft()
            self._depth -= 1
            if request.deadline < now:
                expired.append(request)
                continue
            self._virtual = max(self._virtual, tag)
            return request, expired
        return None, expired

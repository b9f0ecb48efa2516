"""``repro.resilience`` — recovery primitives for the compression stack.

The services keep serving when compression misbehaves: a flipped bit, a
slow codec, or a retired dictionary becomes a counted, recoverable event
instead of an unhandled exception. The primitives:

- :class:`SimClock` — simulated monotonic time (determinism; no wall clock).
- :class:`RetryPolicy` — capped exponential backoff, deterministic jitter.
- :class:`CircuitBreaker` — trips a failing codec to raw passthrough,
  half-opens after a cooldown.
- :class:`QuarantinedBlock` — the structured record of data removed from
  service after failing verified-decompress.

Threaded through the services: the RPC :class:`~repro.services.rpc.Channel`
gains per-message timeout + retry; :class:`~repro.services.cache.CacheServer`
and :class:`~repro.services.farmemory.FarMemoryPool` take a breaker; the
kvstore SST read path and cache get path quarantine corrupt data; and
:class:`~repro.services.managed.ManagedCompression` raises a typed
:class:`~repro.services.managed.DictionaryRetiredError` with a recovery
hook. ``repro chaos`` (CLI) exercises all of it under a named fault plan.
"""

from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.clock import SimClock
from repro.resilience.quarantine import QuarantinedBlock
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "HALF_OPEN",
    "OPEN",
    "QuarantinedBlock",
    "RetryPolicy",
    "SimClock",
]

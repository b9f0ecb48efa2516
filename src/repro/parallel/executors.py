"""Executors: where parallel-engine tasks actually run.

Two implementations of one tiny contract -- ``map(fn, items)`` preserving
item order -- so everything above the executor is oblivious to *how* work
is distributed:

- :class:`SerialExecutor` runs tasks in-process, in order. It is the
  fallback when a pool cannot be created (restricted sandboxes; each one
  counted in :data:`POOL_FALLBACKS`) and the reference for determinism
  tests: pool output must be byte-identical to serial output.
- :class:`ProcessPoolExecutor` fans tasks out over a
  ``multiprocessing.Pool``. Order is still preserved (``Pool.map``
  collates results by input index), so result merging is deterministic
  regardless of which worker finished first. ``multiprocessing`` is
  imported when the first pool starts, not with this module.

Task functions must be module-level (picklable) and must not rely on
parent-process mutable state: on fork platforms they see a snapshot, on
spawn platforms a fresh interpreter.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, TypeVar

from repro.obs.metrics import Counter

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

T = TypeVar("T")
R = TypeVar("R")

#: pools that could not start in this process; each one ran its tasks
#: in-process instead (``compress``, ``decompress`` and ``fleet-report
#: --measure`` print their run's share on stderr when it is not zero)
POOL_FALLBACKS = Counter(
    "parallel_pool_fallbacks_total",
    "process pools that could not start and ran their tasks serially",
)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 mean "all cores", else as given."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


class SerialExecutor:
    """In-process, in-order execution. The determinism reference."""

    jobs = 1
    kind = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]

    def close(self) -> None:  # symmetric with the pool executor
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcessPoolExecutor:
    """``multiprocessing.Pool`` behind the executor contract.

    The pool is created lazily on first :meth:`map` so constructing the
    executor is free, and creation failures (sandboxes without fork/sem
    support, or no ``multiprocessing`` at all) degrade to serial execution
    instead of erroring -- the parallel path must never be *less* available
    than the serial one. Each such degrade bumps :data:`POOL_FALLBACKS`.
    """

    kind = "pool"

    def __init__(self, jobs: int) -> None:
        if jobs < 2:
            raise ValueError("ProcessPoolExecutor needs jobs >= 2; use SerialExecutor")
        self.jobs = jobs
        self._pool: Optional[Pool] = None
        self._fallback: Optional[SerialExecutor] = None

    def _ensure_pool(self) -> None:
        if self._pool is not None or self._fallback is not None:
            return
        try:
            import multiprocessing

            self._pool = multiprocessing.get_context().Pool(self.jobs)
        except (OSError, ValueError, ImportError):
            # No process support here (common in locked-down containers):
            # degrade to the in-process executor, and count it.
            self._fallback = SerialExecutor()
            POOL_FALLBACKS.inc()

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        self._ensure_pool()
        if self._fallback is not None:
            return self._fallback.map(fn, items)
        assert self._pool is not None
        return self._pool.map(fn, list(items), chunksize=1)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_executor(jobs: Optional[int]):
    """Executor for ``jobs`` workers: serial at 1, a process pool above."""
    resolved = resolve_jobs(jobs)
    if resolved <= 1:
        return SerialExecutor()
    return ProcessPoolExecutor(resolved)

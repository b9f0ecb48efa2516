"""run_cells: fan measurement cells out over the worker pool.

Fleet characterization and the ``bench_fig*`` suites are sweeps: a grid of
independent measurement cells -- (service, codec, level) or
(codec, file, level) -- each of which compresses a payload and reports
ratio/counters. The cells share nothing, so they parallelize perfectly;
:func:`run_cells` maps a module-level cell function over the grid on an
executor and returns results *in cell order*, making ``--jobs 1`` and
``--jobs N`` output byte-identical (same cells, same per-cell determinism,
same ordering -- only wall-clock changes).

The cell function must be picklable (module-level) and derive everything
from the cell itself: no closure state survives the trip to a worker.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from repro.parallel.executors import make_executor

Cell = TypeVar("Cell")
Result = TypeVar("Result")


def run_cells(
    cell_fn: Callable[[Cell], Result],
    cells: Sequence[Cell],
    jobs: Optional[int] = 1,
) -> List[Result]:
    """Evaluate every cell on a ``jobs``-wide executor; results align
    index-for-index with ``cells``."""
    cells = list(cells)
    if not cells:
        return []
    executor = make_executor(jobs)
    try:
        return executor.map(cell_fn, cells)
    finally:
        executor.close()

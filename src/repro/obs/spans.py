"""Lightweight trace spans: nested wall-time attribution.

``span("zstd.compress", level=3)`` wraps a region; nested spans form a
tree, and each completed span records its wall time into the global
registry under its flame-style *path* (``"rpc.send;zstd.compress"``) —
the semicolon convention of collapsed flame graphs, mirroring how the
paper's fleet profiler attributes cycles to call-stack leaves
(Section III-A). Spans are exception-safe: the stack is restored and the
duration recorded even when the body raises, with ``error="true"`` on the
series so failed requests stay attributable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import get_registry

#: metric family every completed span records into
SPAN_METRIC = "repro_span_seconds"


class _SpanStack(threading.local):
    """Per-thread stack of open spans."""

    def __init__(self) -> None:
        self.open: List["SpanRecord"] = []


_STACK = _SpanStack()


@dataclass
class SpanRecord:
    """One completed (or in-flight) span."""

    name: str
    attributes: Dict[str, object] = field(default_factory=dict)
    #: flame path: ancestor names joined with ';'
    path: str = ""
    duration_seconds: float = 0.0
    error: bool = False
    children: List["SpanRecord"] = field(default_factory=list)

    def set(self, **attributes: object) -> None:
        """Attach attributes mid-span."""
        self.attributes.update(attributes)

    def walk(self):
        """Yield this record and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


class span:
    """Context manager timing one region; nests via a thread-local stack."""

    def __init__(self, name: str, **attributes: object) -> None:
        self._name = name
        self._attributes = attributes
        self.record: Optional[SpanRecord] = None
        self._start = 0.0

    def __enter__(self) -> SpanRecord:
        parent = _STACK.open[-1] if _STACK.open else None
        path = f"{parent.path};{self._name}" if parent else self._name
        self.record = SpanRecord(
            name=self._name, attributes=dict(self._attributes), path=path
        )
        _STACK.open.append(self.record)
        # repro: lint-ok[D001] -- span durations are wall telemetry by design;
        # they feed histograms with tolerance, never deterministic scorecards
        self._start = time.perf_counter()
        return self.record

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self.record
        assert record is not None
        # repro: lint-ok[D001] -- closes the telemetry-only measurement above
        record.duration_seconds = time.perf_counter() - self._start
        record.error = exc_type is not None
        # always restore the stack, even on error or foreign interleaving
        if _STACK.open and _STACK.open[-1] is record:
            _STACK.open.pop()
        elif record in _STACK.open:
            _STACK.open.remove(record)
        if _STACK.open:
            _STACK.open[-1].children.append(record)
        get_registry().histogram(
            SPAN_METRIC, help="wall seconds per span flame path"
        ).observe(
            record.duration_seconds,
            path=record.path,
            error="true" if record.error else "false",
        )
        return False  # never swallow the exception


def record_external_span(
    name: str,
    duration_seconds: float,
    **attributes: object,
) -> SpanRecord:
    """Stitch a span whose wall time was measured elsewhere into the tree.

    Worker processes cannot contribute to the parent's span stack, so the
    parallel engine ships each chunk's measured duration back with the
    result and the parent re-materializes it here: the span is attached as
    a child of the currently open span (or as a root) and recorded into
    the histogram under its flame path, exactly as if it had run inline.
    """
    parent = _STACK.open[-1] if _STACK.open else None
    path = f"{parent.path};{name}" if parent else name
    record = SpanRecord(
        name=name,
        attributes=dict(attributes),
        path=path,
        duration_seconds=duration_seconds,
    )
    if parent is not None:
        parent.children.append(record)
    get_registry().histogram(
        SPAN_METRIC, help="wall seconds per span flame path"
    ).observe(record.duration_seconds, path=record.path, error="false")
    return record


def reset_spans() -> None:
    """Drop any stray open spans (test isolation)."""
    del _STACK.open[:]

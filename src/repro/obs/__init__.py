"""``repro.obs`` — the fleet telemetry subsystem.

The always-on profiling layer the paper's characterization rests on
(Section III-A), reproduced as a process-wide metrics registry plus trace
spans, with instrumentation threaded through the codec layer and every
service substrate:

- :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / log-bucketed
  ``Histogram`` families in a mergeable :class:`MetricsRegistry`.
- :mod:`repro.obs.spans` — nested wall-time spans forming flame-style
  per-request attributions.
- :mod:`repro.obs.instrument` — the hook functions hot paths call.
- :mod:`repro.obs.export` — Prometheus text, JSON-lines, and table views.
- :mod:`repro.obs.timeseries` — clock-driven rolling windows of
  mergeable registry snapshots (the time axis).
- :mod:`repro.obs.slo` — declarative SLOs with multi-window
  multi-burn-rate alerting over those windows.
- ``repro obs`` (CLI) — run a workload and emit a snapshot; ``repro obs
  watch`` replays a recorded timeline.

Telemetry is **off by default** and zero-cost when disabled: instrumented
call sites check one module-level flag (:data:`repro.obs.state.OBS_STATE`)
and skip everything else. Typical use::

    from repro import obs

    obs.enable()
    ...  # run any workload: kvstore reads, RPC sends, cache gets
    print(obs.to_prometheus(obs.get_registry()))
"""

from repro.obs.export import (
    json_line,
    registry_snapshot,
    round_floats,
    to_jsonl,
    to_prometheus,
    to_table,
)
from repro.obs.slo import (
    DEFAULT_RULES,
    OK,
    PAGE,
    WARN,
    AlertStateMachine,
    AlertSummary,
    AlertTransition,
    BoundSLO,
    BurnRule,
    EventRateSLO,
    SLO,
    SLOEvaluator,
    metric_total,
)
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    WindowSnapshot,
    merge_windows,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.spans import (
    SpanRecord,
    current_span,
    flame_counts,
    recent_roots,
    reset_spans,
    span,
)
from repro.obs.state import OBS_STATE, disable, enable, is_enabled


def reset() -> None:
    """Clear all collected telemetry (registry and spans); flag unchanged."""
    get_registry().clear()
    reset_spans()


__all__ = [
    "AlertStateMachine",
    "AlertSummary",
    "AlertTransition",
    "BoundSLO",
    "BurnRule",
    "Counter",
    "DEFAULT_RULES",
    "EventRateSLO",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS_STATE",
    "OK",
    "PAGE",
    "SLO",
    "SLOEvaluator",
    "SpanRecord",
    "TimeSeriesRecorder",
    "WARN",
    "WindowSnapshot",
    "current_span",
    "disable",
    "enable",
    "flame_counts",
    "get_registry",
    "is_enabled",
    "json_line",
    "merge_windows",
    "metric_total",
    "recent_roots",
    "registry_snapshot",
    "reset",
    "reset_spans",
    "round_floats",
    "span",
    "to_jsonl",
    "to_prometheus",
    "to_table",
]

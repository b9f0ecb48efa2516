"""``repro.obs`` — the fleet telemetry subsystem.

The always-on profiling layer the paper's characterization rests on
(Section III-A), reproduced as a process-wide metrics registry plus trace
spans, with instrumentation threaded through the codec layer and every
service substrate:

- :mod:`repro.obs.metrics` — ``Counter`` / log-bucketed
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

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.obs.export": (
            "json_line",
            "registry_snapshot",
            "round_floats",
            "to_jsonl",
            "to_prometheus",
            "to_table",
        ),
        "repro.obs.metrics": (
            "Counter",
            "Histogram",
            "MetricsRegistry",
            "get_registry",
        ),
        "repro.obs.slo": (
            "DEFAULT_RULES",
            "OK",
            "PAGE",
            "SLO",
            "WARN",
            "AlertStateMachine",
            "AlertSummary",
            "AlertTransition",
            "BoundSLO",
            "BurnRule",
            "EventRateSLO",
            "SLOEvaluator",
            "metric_total",
        ),
        "repro.obs.spans": ("SpanRecord", "reset", "reset_spans", "span"),
        "repro.obs.state": ("OBS_STATE", "disable", "enable", "is_enabled"),
        "repro.obs.timeseries": (
            "TimeSeriesRecorder",
            "WindowSnapshot",
            "merge_windows",
        ),
    },
)

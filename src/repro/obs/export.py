"""Registry exporters: Prometheus text, JSON-lines, human-readable table.

All three render the same snapshot; the Prometheus form is what a scrape
endpoint would serve, the JSON-lines form is the append-friendly flight
recorder, and the table is for eyeballs (``repro obs --format table``).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List

from repro.analysis.reporting import format_table
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: percentiles reported in snapshots — p50/p90/p99 per the paper's
#: latency-distribution figures
QUANTILES = (50, 90, 99)

#: decimal places kept by the deterministic JSON form; nanosecond-scale
#: resolution, far below anything the metrics can resolve, so rounding
#: never loses signal but does make float spelling stable across runs
JSON_PRECISION = 9


def round_floats(value):
    """Recursively round floats to ``JSON_PRECISION`` decimal places.

    Dict keys are untouched; non-finite floats pass through. This plus
    ``sort_keys`` is the whole determinism contract: two runs that
    measured the same thing spell it identically, so their exports diff
    clean.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            return value
        return round(value, JSON_PRECISION)
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


def json_line(entry) -> str:
    """One deterministic JSON line: sorted keys, compact separators,
    fixed-precision floats."""
    return json.dumps(round_floats(entry), sort_keys=True, separators=(",", ":"))


def _labels_dict(key) -> Dict[str, str]:
    return dict(key)


def _entry_sort_key(entry: dict):
    return (entry["metric"], sorted(entry["labels"].items()))


def registry_snapshot(registry: MetricsRegistry) -> List[dict]:
    """Plain-data snapshot: one dict per (metric, label set) series."""
    out: List[dict] = []
    for metric in registry:
        if isinstance(metric, (Counter, Gauge)):
            for key, value in metric.samples():
                out.append(
                    {
                        "metric": metric.name,
                        "kind": metric.kind,
                        "labels": _labels_dict(key),
                        "value": value,
                    }
                )
        elif isinstance(metric, Histogram):
            for key in metric.label_keys():
                labels = _labels_dict(key)
                entry = {
                    "metric": metric.name,
                    "kind": metric.kind,
                    "labels": labels,
                    "count": metric.count(**labels),
                    "sum": metric.sum(**labels),
                    "min": metric.min(**labels),
                    "max": metric.max(**labels),
                }
                for q in QUANTILES:
                    entry[f"p{q}"] = metric.percentile(q, **labels)
                out.append(entry)
    out.sort(key=_entry_sort_key)
    return out


def to_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per series, newline-delimited.

    Deterministic by construction: series sorted by (metric, labels),
    keys sorted within each object, floats at fixed precision — so two
    runs that recorded the same values produce byte-identical output.
    """
    lines = [json_line(entry) for entry in registry_snapshot(registry)]
    return "\n".join(lines) + ("\n" if lines else "")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (0.0.4)."""
    lines: List[str] = []
    for metric in registry:
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            for key, value in metric.samples():
                labels = _format_labels(_labels_dict(key))
                lines.append(f"{metric.name}{labels} {_format_number(value)}")
        elif isinstance(metric, Histogram):
            for key in metric.label_keys():
                labels = _labels_dict(key)
                count = metric.count(**labels)
                for upper, cumulative in metric.cumulative_buckets(**labels):
                    le = _format_number(upper)
                    bucket_labels = _format_labels(labels, extra=f'le="{le}"')
                    lines.append(
                        f"{metric.name}_bucket{bucket_labels} {cumulative}"
                    )
                inf_labels = _format_labels(labels, extra='le="+Inf"')
                lines.append(f"{metric.name}_bucket{inf_labels} {count}")
                plain = _format_labels(labels)
                lines.append(
                    f"{metric.name}_sum{plain} "
                    f"{_format_number(metric.sum(**labels))}"
                )
                lines.append(f"{metric.name}_count{plain} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_table(registry: MetricsRegistry) -> str:
    """Fixed-width table: one row per series, histograms with quantiles."""
    rows: List[List[str]] = []
    for entry in registry_snapshot(registry):
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(entry["labels"].items())
        )
        if entry["kind"] == "histogram":
            value = (
                f"n={entry['count']} sum={entry['sum']:.6g} "
                f"p50={entry['p50']:.3g} p90={entry['p90']:.3g} "
                f"p99={entry['p99']:.3g}"
            )
        else:
            value = _format_number(entry["value"])
        rows.append([entry["metric"], labels, value])
    if not rows:
        return "(no telemetry recorded)"
    return format_table(["metric", "labels", "value / quantiles"], rows)

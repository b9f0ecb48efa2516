"""The persisted performance trajectory and its regression gate.

ROADMAP calls for speedups to be "a tracked curve, not a claim": every
benchmark entry point normalizes its headline numbers into one JSON
artifact (``BENCH_trajectory.json``), and ``repro bench-diff`` compares
two such artifacts — committed baseline vs freshly generated — failing
when any shared metric regressed beyond its tolerance. CI regenerates
the deterministic entries each run and gates on the committed baseline,
so the perf curve persists and regressions fail loudly.

Two kinds of entries coexist:

- **deterministic** metrics (modeled latency, goodput, compression
  ratios) are pure functions of seed and payload; they carry the default
  tolerance and any drift means the *code* changed behavior;
- **measured** metrics (wall-clock overhead ratios) are machine-noisy;
  benches append them with an explicit per-entry ``tolerance`` and they
  are only compared when both files carry them.

File shape (sorted keys, fixed-precision floats, diff-clean)::

    {"schema": 1, "entries": {"<name>": {"value": ..., "unit": ...,
        "higher_is_better": ..., "tolerance": ...?}, ...}}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.export import round_floats

SCHEMA_VERSION = 1
#: default allowed relative regression before the gate fails
DEFAULT_MAX_REGRESSION = 0.10


@dataclass(frozen=True)
class TrajectoryEntry:
    """One normalized benchmark result."""

    name: str
    value: float
    unit: str
    higher_is_better: bool
    #: per-entry tolerance override (None = the gate's default)
    tolerance: Optional[float] = None


def _entry_to_dict(entry: TrajectoryEntry) -> dict:
    out = {
        "value": entry.value,
        "unit": entry.unit,
        "higher_is_better": entry.higher_is_better,
    }
    if entry.tolerance is not None:
        out["tolerance"] = entry.tolerance
    return out


def load_trajectory(path: str) -> Dict[str, TrajectoryEntry]:
    """Read a trajectory file into name-keyed entries."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a trajectory file is a JSON object")
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported trajectory schema {schema!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    entries: Dict[str, TrajectoryEntry] = {}
    raw_entries = payload.get("entries", {})
    if not isinstance(raw_entries, dict):
        raise ValueError(f"{path}: 'entries' is not a JSON object")
    for name, raw in raw_entries.items():
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: entry {name!r} is not a JSON object")
        entries[name] = TrajectoryEntry(
            name=name,
            value=float(raw["value"]),
            unit=str(raw.get("unit", "")),
            higher_is_better=bool(raw.get("higher_is_better", True)),
            tolerance=(
                float(raw["tolerance"]) if "tolerance" in raw else None
            ),
        )
    return entries


def save_trajectory(path: str, entries: Dict[str, TrajectoryEntry]) -> None:
    """Write the trajectory file (sorted keys, fixed precision)."""
    payload = {
        "schema": SCHEMA_VERSION,
        "entries": {
            name: _entry_to_dict(entry)
            for name, entry in sorted(entries.items())
        },
    }
    with open(path, "w") as handle:
        json.dump(round_floats(payload), handle, sort_keys=True, indent=2)
        handle.write("\n")


def record_entry(path: str, entry: TrajectoryEntry) -> None:
    """Append/update one entry in a trajectory file (creating it if
    absent) — the helper every bench entry point calls."""
    entries: Dict[str, TrajectoryEntry] = {}
    if os.path.exists(path):
        entries = load_trajectory(path)
    entries[entry.name] = entry
    save_trajectory(path, entries)


@dataclass(frozen=True)
class DiffRow:
    """One metric's comparison between baseline and current."""

    name: str
    status: str  # "ok" | "regressed" | "improved" | "missing" | "new"
    baseline: Optional[float]
    current: Optional[float]
    #: signed relative change in the *good* direction (+ = better)
    change: Optional[float]
    tolerance: float
    unit: str


def _relative_gain(entry: TrajectoryEntry, current: float) -> Optional[float]:
    """Relative change where positive always means 'got better'."""
    if entry.value == 0:
        return None
    raw = (current - entry.value) / abs(entry.value)
    return raw if entry.higher_is_better else -raw


def compare_trajectories(
    baseline: Dict[str, TrajectoryEntry],
    current: Dict[str, TrajectoryEntry],
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> List[DiffRow]:
    """Compare entry sets; rows sorted by name, worst problems intact.

    A metric present in the baseline but absent from the current file is
    ``missing`` (and fails the gate — silently dropping a tracked metric
    is itself a regression). Current-only metrics are ``new`` and
    informational.
    """
    rows: List[DiffRow] = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            rows.append(
                DiffRow(name, "new", None, cur.value, None,
                        max_regression, cur.unit)
            )
            continue
        tolerance = (
            base.tolerance if base.tolerance is not None else max_regression
        )
        if cur is None:
            rows.append(
                DiffRow(name, "missing", base.value, None, None,
                        tolerance, base.unit)
            )
            continue
        gain = _relative_gain(base, cur.value)
        if gain is None:
            status = "ok" if cur.value == base.value else "regressed"
        elif gain < -tolerance:
            status = "regressed"
        elif gain > tolerance:
            status = "improved"
        else:
            status = "ok"
        rows.append(
            DiffRow(name, status, base.value, cur.value, gain,
                    tolerance, base.unit)
        )
    return rows


def has_regressions(rows: List[DiffRow]) -> bool:
    return any(row.status in ("regressed", "missing") for row in rows)


def format_diff(rows: List[DiffRow]) -> str:
    """Render the comparison; byte-identical for identical inputs."""
    lines = [
        f"{'metric':42s} {'baseline':>12s} {'current':>12s} "
        f"{'change':>8s}  status"
    ]
    for row in rows:
        base = "-" if row.baseline is None else f"{row.baseline:.4g}"
        cur = "-" if row.current is None else f"{row.current:.4g}"
        change = "-" if row.change is None else f"{row.change * 100:+.1f}%"
        marker = "!" if row.status in ("regressed", "missing") else " "
        lines.append(
            f"{row.name:42s} {base:>12s} {cur:>12s} {change:>8s} "
            f"{marker} {row.status}"
        )
    bad = [r for r in rows if r.status in ("regressed", "missing")]
    lines.append("")
    if bad:
        lines.append(
            f"FAIL: {len(bad)} metric(s) regressed or went missing "
            f"(tolerance per entry, default "
            f"{DEFAULT_MAX_REGRESSION * 100:.0f}%)"
        )
    else:
        lines.append("all tracked metrics within tolerance")
    return "\n".join(lines)

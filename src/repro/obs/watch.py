"""``repro obs watch``: replay a recorded timeline as an ANSI view.

Reads the JSONL flight-recorder form written by ``repro slo --format
jsonl`` (kinds: ``run``, ``window``, ``alert``, ``end``) and renders a
window-by-window terminal timeline — burn-rate bars, colored alert
states, and transition callouts. Pure rendering: no simulation runs
here, so the same file always paints the same screen (modulo
``--no-color``).
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional

from repro.obs.slo import AlertTransition, format_states, format_transition

_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_STATE_COLORS = {
    "ok": "\x1b[32m",
    "warn": "\x1b[33m",
    "page": "\x1b[31m",
}
#: burn-rate bar: one cell per 0.5x of budget burn, capped
_BAR_CELLS = 16
_BAR_PER_CELL = 0.5


class WatchError(ValueError):
    """Raised when the input is not a recognizable timeline."""


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color and code else text


def _burn_bar(burn: Optional[float], color: bool) -> str:
    if burn is None:
        return " " * _BAR_CELLS
    cells = min(_BAR_CELLS, int(burn / _BAR_PER_CELL))
    if burn > 0 and cells == 0:
        cells = 1
    bar = "#" * cells + "." * (_BAR_CELLS - cells)
    if burn >= 3.0:
        code = _STATE_COLORS["page"]
    elif burn >= 1.0:
        code = _STATE_COLORS["warn"]
    else:
        code = _STATE_COLORS["ok"]
    return _paint(bar, code, color)


def _states_cell(states: dict, color: bool) -> str:
    hot = sorted(
        (name, state) for name, state in states.items() if state != "ok"
    )
    if not hot:
        return _paint("ok", _STATE_COLORS["ok"], color)
    return " ".join(
        _paint(f"{name}={state}", _STATE_COLORS.get(state, ""), color)
        for name, state in hot
    )


def _worst_burn(burns: dict) -> Optional[float]:
    values = [b for b in burns.values() if b is not None]
    return max(values) if values else None


def render_watch(lines: Iterable[str], color: bool = True) -> str:
    """Render JSONL timeline lines into the terminal view."""
    out: List[str] = []
    saw_any = False
    for number, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            row = json.loads(raw)
        except json.JSONDecodeError as error:
            raise WatchError(f"not a JSONL timeline: {error}") from error
        if not isinstance(row, dict):
            raise WatchError(f"line {number}: a row must be a JSON object")
        try:
            out.extend(_render_row(row, color))
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise WatchError(
                f"line {number}: malformed {row.get('kind')!r} row "
                f"({type(error).__name__}: {error})"
            ) from error
        saw_any = True
    if not saw_any:
        raise WatchError("empty input: no timeline rows found")
    return "\n".join(out)


def _render_row(row: dict, color: bool) -> List[str]:
    """The view lines of one timeline row (none for an unknown kind)."""
    out: List[str] = []
    kind = row.get("kind")
    if kind == "run":
        title = (
            f"obs watch -- {row.get('plane', '?')} "
            f"scenario '{row.get('scenario', '?')}', "
            f"seed {row.get('seed', '?')}, "
            f"window {row.get('window_seconds', '?')} s"
        )
        out.append(_paint(title, _BOLD, color))
        out.append(
            f"{'win':>4s} {'span (s)':>15s} {'offer':>6s} "
            f"{'shed':>5s} {'p99 ms':>8s} "
            f"{'burn ' + '-' * (_BAR_CELLS - 5):{_BAR_CELLS}s} states"
        )
    elif kind == "window":
        span = f"[{row['start']:6.2f},{row['end']:6.2f})"
        p99 = row.get("p99_ms")
        p99_cell = "-".rjust(8) if p99 is None else f"{p99:8.2f}"
        unserved = (
            row.get("shed", 0)
            + row.get("throttled", 0)
            + row.get("expired", 0)
        )
        out.append(
            f"{row['index']:4d} {span:>15s} {row.get('offered', 0):6d} "
            f"{unserved:5d} {p99_cell} "
            f"{_burn_bar(_worst_burn(row.get('burns', {})), color)} "
            f"{_states_cell(row.get('states', {}), color)}"
        )
    elif kind == "alert":
        edge = AlertTransition(
            row.get("at", 0),
            row.get("slo", "?"),
            row.get("from", "?"),
            row.get("to", "?"),
            row.get("reason", ""),
        )
        code = _STATE_COLORS.get(edge.to_state, "")
        line = "     " + format_transition(edge, f"{edge.at:.3f} s")
        out.append(_paint(line, code or _DIM, color))
    elif kind == "end":
        out.append("")
        out.append(
            f"final states: {format_states(row.get('final_states') or {})}; "
            f"page seconds {row.get('total_page_seconds', 0.0):.3f}; "
            f"worst {row.get('worst_state', 'ok')}"
        )
    # unknown kinds are skipped: the format may grow fields/rows
    return out


def watch_file(path: str, color: bool = True) -> str:
    with open(path) as handle:
        return render_watch(handle, color=color)

"""Inline suppression comments: ``# repro: lint-ok[RULE] -- justification``.

A suppression is a *contract amendment*, not an escape hatch: every one
must name the rule(s) it waives and say why the site is legitimately
exempt. The canonical example is the codec telemetry's wall-clock read
-- ``perf_counter()`` inside :meth:`repro.codecs.base.Compressor.compress`
times the call for the ``CODEC_SECONDS`` histogram and nothing modeled
reads it, so it carries::

    # repro: lint-ok[D001] -- wall duration feeds the CODEC_SECONDS
    # histogram only; modeled speeds come from perfmodel counters
    start = perf_counter() if obs_on else 0.0

Syntax rules, enforced here:

- the marker is ``repro: lint-ok[R1]`` or ``lint-ok[R1,R2]`` inside a
  comment; rule ids are upper-case letter + digits;
- a justification is **required**: everything after ``--`` must be
  non-empty. A marker without one produces an S001 finding and does not
  suppress anything;
- an inline comment covers its own line; a standalone comment line
  covers the next *code* line, skipping blank and further comment lines
  (so a justification may run over several comment lines);
- a suppression that matches no finding produces an S002 *warning*
  (stale suppressions hide future regressions), but only when the full
  rule set ran -- a filtered ``--rule`` run cannot judge staleness.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.lint.finding import ERROR, Finding

#: the marker grammar; group 1 = rule list, group 2 = justification
_MARKER = re.compile(
    r"repro:\s*lint-ok\[(?P<rules>[^\]]*)\]\s*(?:--\s*(?P<why>.*\S))?"
)
_RULE_ID = re.compile(r"^[A-Z]\d{3}$")

S001 = "S001"
S002 = "S002"


@dataclass
class Suppression:
    """One parsed ``lint-ok`` marker."""

    rules: Tuple[str, ...]
    justification: str
    #: line the comment sits on
    line: int
    #: lines this suppression covers (own line; next line when standalone)
    covers: Tuple[int, ...]
    used: bool = False


def parse_suppressions(
    source: str, path: str
) -> Tuple[List[Suppression], List[Finding]]:
    """Extract suppressions from ``source``; malformed markers become
    S001 findings (and suppress nothing)."""
    suppressions: List[Suppression] = []
    findings: List[Finding] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [], []  # unparseable files are reported by the engine (F001)
    for tok in tokens:
        if tok.type != tokenize.COMMENT or "lint-ok" not in tok.string:
            continue
        line_no = tok.start[0]
        line_text = lines[line_no - 1] if line_no <= len(lines) else ""
        match = _MARKER.search(tok.string)
        if match is None:
            findings.append(
                Finding(
                    rule=S001,
                    severity=ERROR,
                    path=path,
                    line=line_no,
                    col=tok.start[1],
                    message=(
                        "malformed suppression: expected "
                        "'# repro: lint-ok[RULE] -- justification'"
                    ),
                    line_text=line_text,
                )
            )
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        why = (match.group("why") or "").strip()
        bad_ids = [r for r in rules if not _RULE_ID.match(r)]
        if not rules or bad_ids or not why:
            detail = (
                "missing justification (add ' -- why this site is exempt')"
                if rules and not bad_ids
                else "rule list must be ids like D001"
            )
            findings.append(
                Finding(
                    rule=S001,
                    severity=ERROR,
                    path=path,
                    line=line_no,
                    col=tok.start[1],
                    message=f"invalid suppression: {detail}",
                    line_text=line_text,
                )
            )
            continue
        # a comment that is the whole line covers the next *code* line
        # (justifications may continue over several comment lines)
        standalone = line_text.strip().startswith("#")
        covers = (line_no,)
        if standalone:
            for offset in range(line_no, len(lines)):
                text = lines[offset].strip()
                if text and not text.startswith("#"):
                    covers = (line_no, offset + 1)
                    break
        suppressions.append(
            Suppression(rules=rules, justification=why, line=line_no, covers=covers)
        )
    return suppressions, findings


def apply_suppressions(
    findings: List[Finding], suppressions: List[Suppression]
) -> Tuple[List[Finding], List[Finding]]:
    """Split ``findings`` into (kept, suppressed); marks matches used."""
    by_line: Dict[int, List[Suppression]] = {}
    for sup in suppressions:
        for line in sup.covers:
            by_line.setdefault(line, []).append(sup)
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for item in findings:
        matched = False
        for sup in by_line.get(item.line, []):
            if item.rule in sup.rules:
                sup.used = True
                matched = True
        (suppressed if matched else kept).append(item)
    return kept, suppressed


def stale_suppression_findings(
    suppressions: List[Suppression], path: str, lines: List[str]
) -> List[Finding]:
    """S002 warnings for suppressions that matched nothing."""
    out: List[Finding] = []
    for sup in suppressions:
        if sup.used:
            continue
        out.append(
            Finding(
                rule=S002,
                severity="warning",
                path=path,
                line=sup.line,
                col=0,
                message=(
                    f"suppression for {','.join(sup.rules)} matched no finding; "
                    "remove it or it will mask a future regression"
                ),
                line_text=lines[sup.line - 1] if sup.line <= len(lines) else "",
            )
        )
    return out

"""``repro lint``: run the sanitizer over a tree and gate on the ratchet.

Follows the CLI contract in :mod:`repro.cli`: stdout is only the
deterministic report (table or JSONL, sorted by location), the human
summary and the gate verdict go to stderr, and the exit status is 0
clean (or all findings grandfathered under ``--fail-on new``), 1 gate
failed, 2 usage error (unknown rule, bad baseline).
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import emit_report, fail
from repro.lint.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    save_baseline,
    split_by_baseline,
    stale_entries,
)
from repro.lint.engine import LintReport, lint_paths
from repro.lint.rules import all_rules, get_rules
from repro.obs.export import json_line


def _format_table(report: LintReport, new_fingerprints) -> str:
    from repro.analysis import format_table

    if not report.findings:
        return f"repro lint: clean ({report.files_checked} files)\n"
    rows = []
    for item in report.findings:
        rows.append(
            [
                item.rule,
                item.severity,
                "new" if item.fingerprint in new_fingerprints else "old",
                item.location(),
                item.message,
            ]
        )
    return format_table(
        ["rule", "severity", "ratchet", "location", "message"],
        rows,
        title=f"repro lint: {len(report.findings)} findings "
        f"({report.files_checked} files)",
    )


def _format_jsonl(report: LintReport, new_fingerprints) -> str:
    lines = []
    for item in report.findings:
        entry = item.to_dict()
        entry["new"] = item.fingerprint in new_fingerprints
        lines.append(json_line(entry))
    return "\n".join(lines) + ("\n" if lines else "")


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id}  [{rule.severity}]  {rule.title}")
        lines.append(f"      {rule.rationale}")
    return "\n".join(lines) + "\n"


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        emit_report(_list_rules())
        return 0
    try:
        rules = get_rules(args.rule) if args.rule else None
        baseline = load_baseline(args.baseline)
    except (ValueError, OSError) as error:
        return fail(f"lint: {error}", code=2)
    report = lint_paths(args.paths, rules=rules)

    errors = report.errors()
    new, grandfathered = split_by_baseline(errors, baseline)
    new_fingerprints = {item.fingerprint for item in new}

    if args.write_baseline:
        save_baseline(errors, args.baseline)
        print(
            f"lint: wrote {len(errors)} baseline entries to {args.baseline}",
            file=sys.stderr,
        )

    render = _format_jsonl if args.format == "jsonl" else _format_table
    emit_report(render(report, new_fingerprints), args.output)

    stale = stale_entries(errors, baseline)
    summary = (
        f"lint: {report.files_checked} files, "
        f"{len(errors)} errors ({len(new)} new, {len(grandfathered)} "
        f"grandfathered), {len(report.warnings())} warnings, "
        f"{len(report.suppressed)} suppressed"
    )
    if stale:
        summary += f", {len(stale)} stale baseline entries (--write-baseline prunes)"
    print(summary, file=sys.stderr)

    if args.fail_on == "any" and errors:
        return fail(f"lint: {len(errors)} errors (--fail-on any)")
    if args.fail_on == "new" and new:
        return fail(f"lint: {len(new)} new errors not in {args.baseline}")
    return 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", default="table", choices=["table", "jsonl"],
        help="jsonl is the machine-diffable CI artifact form",
    )
    parser.add_argument(
        "--rule", action="append", default=None, metavar="ID",
        help="run only this rule (repeatable); disables stale-suppression "
        "warnings",
    )
    parser.add_argument(
        "--fail-on", default="new", choices=["new", "any"],
        help="'new' gates on the baseline ratchet; 'any' ignores the baseline",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help="grandfathered-findings file (missing = empty baseline)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from current findings (prunes stale entries)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


"""``repro lint``: run the sanitizer over a tree and fail on any error.

Follows the CLI contract in :mod:`repro.cli`: stdout is only the
deterministic report (table or JSONL, sorted by location), the human
summary and the gate verdict go to stderr, and the exit status is 0
when no error finding is left, 1 when one is, 2 usage error (unknown
rule, a path that does not exist). The inline ``# repro: lint-ok[RULE]
-- why`` waiver is the only way to exempt a finding.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.cli import emit_report, fail
from repro.lint.engine import LintReport, lint_paths
from repro.lint.rules import all_rules, get_rules
from repro.obs.export import json_line


def _format_table(report: LintReport) -> str:
    from repro.analysis.reporting import format_table

    if not report.findings:
        return f"repro lint: clean ({report.files_checked} files)\n"
    rows = [
        [item.rule, item.severity, item.location(), item.message]
        for item in report.findings
    ]
    return format_table(
        ["rule", "severity", "location", "message"],
        rows,
        title=f"repro lint: {len(report.findings)} findings "
        f"({report.files_checked} files)",
    )


def _format_jsonl(report: LintReport) -> str:
    lines = [json_line(item.to_dict()) for item in report.findings]
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
    except ValueError as error:
        return fail(f"lint: {error}", code=2)
    for path in args.paths:
        if not os.path.exists(path):
            return fail(f"lint: no such file or directory: {path}", code=2)
    report = lint_paths(args.paths, rules=rules)

    render = _format_jsonl if args.format == "jsonl" else _format_table
    emit_report(render(report), args.output)

    errors = report.errors()
    print(
        f"lint: {report.files_checked} files, {len(errors)} errors, "
        f"{len(report.warnings())} warnings, "
        f"{len(report.suppressed)} suppressed",
        file=sys.stderr,
    )
    if errors:
        return fail(f"lint: {len(errors)} errors")
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
        "--output", default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )

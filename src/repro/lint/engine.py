"""The lint engine: file walking, parsing, rule dispatch, suppression.

One parse per file, shared by every rule through a :class:`FileContext`
that pre-computes what rules keep needing:

- a **parent map** (``parent_of``): AST nodes back-linked to their
  parent and the field they occupy, so rules can ask "is this call the
  direct argument of ``sorted()``?" or "does an enclosing ``if`` guard
  this statement?" without re-walking;
- **from-imports** (``from_imports``): local name -> source module, so
  the obs rule knows that ``record_codec_call`` came from
  ``repro.obs.instrument`` even when imported inside a function.

Output is deterministic by construction: files are discovered in sorted
order and findings are sorted by (path, line, col, rule). Two runs over
the same tree emit byte-identical reports -- the lint CI job diffs them,
exactly like the chaos and cluster-sim smokes.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.finding import ERROR, Finding
from repro.lint.rules import Rule, all_rules
from repro.lint.suppress import (
    Suppression,
    apply_suppressions,
    parse_suppressions,
    stale_suppression_findings,
)

#: rule id for files the engine cannot parse
F001 = "F001"


@dataclass
class FileContext:
    """Everything a rule needs to check one file."""

    path: str
    source: str
    tree: ast.AST
    lines: List[str]
    #: node -> (parent node, field name on the parent holding it)
    parent_of: Dict[ast.AST, Tuple[ast.AST, str]] = field(default_factory=dict)
    #: local name -> dotted module it was from-imported from
    from_imports: Dict[str, str] = field(default_factory=dict)
    #: local name -> (module, original name); catches aliased imports like
    #: ``from time import monotonic as now``
    from_import_origins: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source)
        ctx = cls(path=path, source=source, tree=tree, lines=source.splitlines())
        for parent in ast.walk(tree):
            for field_name, value in ast.iter_fields(parent):
                if isinstance(value, ast.AST):
                    ctx.parent_of[value] = (parent, field_name)
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.AST):
                            ctx.parent_of[item] = (parent, field_name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    ctx.from_imports[local] = node.module
                    ctx.from_import_origins[local] = (node.module, alias.name)
        return ctx

    def parent(self, node: ast.AST) -> Optional[Tuple[ast.AST, str]]:
        return self.parent_of.get(node)

    def ancestors(self, node: ast.AST):
        """Yield (ancestor, field-on-ancestor) pairs, innermost first."""
        current = node
        while True:
            link = self.parent_of.get(current)
            if link is None:
                return
            yield link
            current = link[0]

    def enclosing_function(self, node: ast.AST) -> Optional[str]:
        """Name of the innermost enclosing def, or None at module level."""
        for ancestor, __ in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor.name
        return None


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity != ERROR]


def _normalize(path: str) -> str:
    """Repo-relative forward-slash paths so reports are
    machine-independent."""
    rel = os.path.relpath(path)
    return rel.replace(os.sep, "/")


def discover_files(paths: Sequence[str]) -> List[str]:
    """All ``.py`` files under ``paths`` (files pass through), sorted."""
    out = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs.sort()  # deterministic walk order on every platform
            dirs[:] = [d for d in dirs if d not in ("__pycache__", ".git")]
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return sorted(dict.fromkeys(_normalize(p) for p in out))


def _check_file(
    source: str, path: str, rules: Sequence[Rule]
) -> Tuple[Optional[FileContext], List[Finding], List[Suppression]]:
    """Parse one file and run the per-file rules: (context or None when
    it does not parse, raw findings, its waivers)."""
    suppressions, marker_findings = parse_suppressions(source, path)
    try:
        ctx = FileContext.parse(path, source)
    except SyntaxError as exc:
        unparsed = Finding(
            rule=F001,
            severity=ERROR,
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"cannot parse: {exc.msg}",
            line_text=(exc.text or "").rstrip("\n"),
        )
        return None, [unparsed], []
    raw: List[Finding] = list(marker_findings)
    for rule in rules:
        if not rule.is_exempt(ctx):
            raw.extend(rule.check(ctx))
    return ctx, raw, suppressions


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every Python file under ``paths``; deterministic output.

    The per-file rules run first, then each rule's whole-tree pass over
    every parsed file; waivers and the stale check apply after both, so
    a waiver of a whole-tree finding is used, not stale.
    """
    active = list(rules) if rules is not None else all_rules()
    files = []
    for path in discover_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            files.append(_check_file(handle.read(), path, active))
    contexts = [ctx for ctx, __, __ in files if ctx is not None]
    tree_findings: Dict[str, List[Finding]] = {}
    for rule in active:
        for item in rule.check_tree(contexts):
            tree_findings.setdefault(item.path, []).append(item)
    report = LintReport(files_checked=len(files))
    for ctx, raw, suppressions in files:
        if ctx is not None:
            raw = raw + tree_findings.get(ctx.path, [])
        kept, suppressed = apply_suppressions(raw, suppressions)
        if rules is None and ctx is not None:
            # a filtered run cannot tell a stale waiver from one whose
            # rule was skipped, so S002 needs the full rule set
            kept.extend(stale_suppression_findings(suppressions, ctx.path, ctx.lines))
        report.findings.extend(kept)
        report.suppressed.extend(suppressed)
    report.findings.sort(key=Finding.sort_key)
    report.suppressed.sort(key=Finding.sort_key)
    return report

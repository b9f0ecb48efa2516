"""Rule family U: public surface that only tests read.

``src/`` exists to reproduce the paper through the figure benchmarks,
the CLI, the simulators and the examples. A public name there that
nothing but a test reads is surface kept alive for its own test: it
costs review and upkeep and reproduces nothing. U001 is the census of
such names, run as a gate so a deleted name stays deleted.

This is the one whole-tree rule. It sees every linted file at once
(:meth:`~repro.lint.rules.Rule.check_tree`) and, for identifiers only,
every other ``.py`` under the repository root that holds the linted
``src/`` -- so ``benchmarks/`` and ``examples/`` are readers without
being linted. Matching is by identifier, as a census by hand would do:
an override is read whenever its base method's name is read.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.finding import Finding
from repro.lint.rules import Rule, register


def _parts(path: str) -> List[str]:
    return path.replace(os.sep, "/").split("/")


def _is_test_file(path: str) -> bool:
    parts = _parts(path)
    name = parts[-1]
    return "tests" in parts[:-1] or name.startswith("test_") or name == "conftest.py"


def _src_root(path: str) -> Optional[str]:
    """The directory holding the innermost ``src`` directory of ``path``,
    or None when the file is not under one."""
    parts = _parts(path)[:-1]
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "src":
            return "/".join(parts[:index]) or "."
    return None


def _root_files(root: str) -> Iterator[str]:
    """Every non-test ``.py`` under ``root``, in sorted order."""
    for base, dirs, files in os.walk(root):
        dirs[:] = sorted(
            d for d in dirs
            if d != "tests" and d != "__pycache__" and not d.startswith(".")
        )
        for name in sorted(files):
            path = os.path.join(base, name)
            if name.endswith(".py") and not _is_test_file(path):
                yield path


def _readers(tree: ast.AST, is_package_init: bool) -> Set[str]:
    """Identifiers ``tree`` reads: names, attributes and imports. A
    package ``__init__``'s from-imports are re-exports, not reads."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom) and not is_package_init:
            out.update(alias.name for alias in node.names)
    return out


def _is_registered(node: ast.AST) -> bool:
    """Does a registry decorator (``@register``, ``@_register("x")``)
    hand ``node`` to a table that reads it by key?"""
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if "register" in name:
            return True
    return False


def _definitions(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """(node, qualified name) of each module-level public function or
    class and each public method of a public class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield item, f"{node.name}.{item.name}"


@register
class UnreadSurfaceRule(Rule):
    id = "U001"
    title = "public name in src/ that only tests read"
    rationale = (
        "A public function, class or method in src/ with no reader outside "
        "tests/ (benchmarks/ and examples/ count) is surface kept alive for "
        "its own test. Delete it, move a pure test oracle under tests/, or "
        "waive it with a justification naming its non-test reader."
    )

    def check(self, ctx) -> Iterator[Finding]:
        return iter(())

    def check_tree(self, contexts: Sequence) -> Iterator[Finding]:
        linted = [c for c in contexts if not _is_test_file(c.path)]
        sources = [c for c in linted if _src_root(c.path) is not None]
        if not sources:
            return
        trees: Dict[str, ast.AST] = {os.path.normpath(c.path): c.tree for c in linted}
        for root in sorted({_src_root(c.path) for c in sources}):
            for path in _root_files(root):
                key = os.path.normpath(path)
                if key in trees:
                    continue
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        trees[key] = ast.parse(handle.read())
                except (SyntaxError, UnicodeDecodeError):
                    continue  # not linted, so not this rule's to report
        read: Set[str] = set()
        for key, tree in trees.items():
            read |= _readers(tree, os.path.basename(key) == "__init__.py")
        for ctx in sources:
            for node, qualname in _definitions(ctx.tree):
                if node.name in read or _is_registered(node):
                    continue
                # anchor on the first decorator, where a waiver reaches
                anchor = node.decorator_list[0] if node.decorator_list else node
                yield self.finding(
                    ctx,
                    anchor,
                    f"{qualname} is public but no code outside tests/ reads "
                    "it; delete it, move it under tests/, or waive it naming "
                    "its reader",
                )

"""Each entry point loads only what it runs.

A fresh interpreter imports one entry point and its ``sys.modules`` is
checked: no process pool, no cache service, no fleet sweep and no graph
model; no ``repro.parallel`` in the simulators; ``repro.analysis`` only
where a scorecard renders; and no more ``repro.*`` modules than the count
pinned below. The counts are exact module counts, not clocks: a change
that makes an entry point import more has to raise its pin here, in
review. ``python
tests/test_import_closure.py`` prints each entry point's count beside its
pin.

Package ``__init__`` modules re-export through a lazy name table
(:mod:`repro.lazy`); the tests below also hold that no package imports a
sibling subsystem at import time, that code in ``src/`` imports each name
from the module that defines it, and that every name the docs, the
README and the examples import still resolves.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: entry point -> (the import a caller runs, ``repro.*`` module ceiling,
#: renders a scorecard)
ENTRY_POINTS = {
    "repro --help": (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass",
        36,
        False,
    ),
    "repro.cli": ("import repro.cli", 36, False),
    "repro.codecs": ("import repro.codecs", 33, False),
    "repro.services.kvstore": (
        "from repro.services.kvstore import KVStore, SimStorage",
        50,
        False,
    ),
    "repro.serving.simulate": ("import repro.serving.simulate", 74, True),
    "repro.cluster.simulate": ("import repro.cluster.simulate", 81, True),
}
#: entry points that start no process pool, so load no ``repro.parallel``:
#: the gateway compresses in its own process
POOL_FREE = ("repro.serving.simulate", "repro.cluster.simulate")
#: modules no entry point above may load
NEVER_LOADED = (
    "multiprocessing",
    "repro.services.cache",
    "repro.fleet.sweep",
    "repro.graphs.model",
)
#: packages whose ``__init__`` may load nothing but itself and ``repro.lazy``
LEAN_PACKAGES = (
    "repro",
    "repro.core",
    "repro.obs",
    "repro.graphs",
    "repro.services",
    "repro.fleet",
    "repro.serving",
    "repro.cluster",
    "repro.faults",
    "repro.resilience",
)


def _loaded_after(statement: str) -> list:
    """Sorted ``sys.modules`` keys of a fresh interpreter after ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        cwd=str(ROOT),
    )
    return json.loads(out.stdout)


def _repro_modules(modules) -> list:
    return [name for name in modules if name == "repro" or name.startswith("repro.")]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_import_closure(entry):
    statement, ceiling, renders = ENTRY_POINTS[entry]
    modules = _loaded_after(statement)
    assert [name for name in NEVER_LOADED if name in modules] == []
    assert ("repro.analysis" in modules) == renders
    if entry in POOL_FREE:
        assert [name for name in modules if name.startswith("repro.parallel")] == []
    count = len(_repro_modules(modules))
    assert count <= ceiling, f"{entry} loads {count} repro modules (pin {ceiling})"


def test_package_inits_load_no_sibling_subsystem():
    statement = "\n".join(f"import {package}" for package in LEAN_PACKAGES)
    loaded = set(_repro_modules(_loaded_after(statement)))
    assert loaded == set(LEAN_PACKAGES) | {"repro.lazy"}


# -- in-tree imports name the defining module --------------------------------


def _package_definitions(package_init: Path) -> set:
    """Names a package ``__init__`` defines itself: defs, classes and
    assignments (a name it imports is defined elsewhere)."""
    names = set()
    for node in ast.parse(package_init.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_src_imports_each_name_from_its_defining_module():
    packages = {
        ".".join(path.parent.relative_to(SRC).parts): path
        for path in sorted(SRC.rglob("__init__.py"))
    }
    modules = {
        ".".join(path.with_suffix("").relative_to(SRC).parts)
        for path in sorted(SRC.rglob("*.py"))
    }
    through_a_table = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.module in packages):
                continue
            own = _package_definitions(packages[node.module])
            for alias in node.names:
                name = alias.name
                if f"{node.module}.{name}" not in modules and name not in own:
                    where = path.relative_to(ROOT)
                    through_a_table.append(f"{where}:{node.lineno} {node.module}.{name}")
    assert through_a_table == []


# -- documented names keep resolving ------------------------------------------

_FROM_IMPORT = re.compile(r"^\s*from\s+(repro[\w.]*)\s+import\s+([\w, ]+)$", re.M)


def _documented_imports():
    """``(source, module, name)`` for every ``from repro... import`` in the
    docs, the README and the examples."""
    found = []
    for path in sorted(ROOT.joinpath("examples").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found += [(path.name, node.module, a.name) for a in node.names]
    for path in [ROOT / "README.md", *sorted(ROOT.joinpath("docs").glob("*.md"))]:
        for module, names in _FROM_IMPORT.findall(path.read_text()):
            found += [(path.name, module, name.strip()) for name in names.split(",")]
    return found


def _top_level_names():
    """Names ``docs/API.md`` marks **(top)**: re-exported by ``repro``."""
    text = ROOT.joinpath("docs", "API.md").read_text()
    names = set()
    for cell in re.findall(r"^\| (.+?) \*\*\(top\)\*\*", text, re.M):
        names.update(re.findall(r"`(\w+)", cell))
    return sorted(names)


def test_documented_names_resolve():
    documented = _documented_imports()
    assert len(documented) > 50
    missing = []
    for source, module, name in documented:
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{source}: from {module} import {name}")
    assert missing == []


def test_top_level_names_resolve():
    import repro

    names = _top_level_names()
    assert "CompOpt" in names and "get_codec" in names
    assert [name for name in names if not hasattr(repro, name)] == []


def test_every_package_export_resolves_and_is_bound_once():
    for init in sorted(SRC.rglob("__init__.py")):
        package = importlib.import_module(".".join(init.parent.relative_to(SRC).parts))
        for name in getattr(package, "__all__", ()):
            value = getattr(package, name)
            assert value is not None, (package.__name__, name)
            assert name in vars(package)  # bound once, never looked up again


if __name__ == "__main__":
    for entry, (statement, ceiling, __) in sorted(ENTRY_POINTS.items()):
        count = len(_repro_modules(_loaded_after(statement)))
        print(f"{entry:24} {count:4} repro.* modules (pin {ceiling})")

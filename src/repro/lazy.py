"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package names its public surface in one table, ``{submodule: names}``,
and loads a submodule only when one of its names is first read off the
package::

    __getattr__, __all__ = lazy_exports(__name__, {
        "repro.core.engine": ("CompEngine",),
    })

``from repro.core import CompEngine`` then imports ``repro.core.engine``
and nothing else of ``repro.core``. The resolved object is bound in the
package namespace, so each name is looked up through the table at most
once per process. Code inside ``src/`` imports from the defining
submodule and never goes through a table.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], List[str]]:
    """``(__getattr__, __all__)`` for ``package`` re-exporting ``table``."""
    owners = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__, sorted(owners)

"""The graph registry: names → specs, and the ``graph:`` codec hook.

Two layers back a name lookup:

- graphs registered at runtime (``register_graph``) — search candidates,
  CLI-trained graphs loaded from files;
- the *trained* table (:mod:`repro.graphs.trained`) — per-category graphs
  pinned as module-level literals, which is what makes them available in
  freshly spawned pool workers: ``get_codec("graph:record")`` works in any
  process without a registration side channel, because resolution falls
  through to the literal table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.graphs.codec import GraphCompressor
from repro.graphs.model import Spec, validate_spec

_DYNAMIC: Dict[str, Spec] = {}


def register_graph(name: str, spec: Spec) -> None:
    """Register (or replace) a named graph for this process."""
    if not name or ":" in name:
        raise ValueError(f"invalid graph name {name!r}")
    validate_spec(spec)
    _DYNAMIC[name] = spec


def get_graph(name: str) -> Spec:
    """The spec registered under ``name``; raises ``KeyError`` if absent."""
    if name in _DYNAMIC:
        return _DYNAMIC[name]
    from repro.graphs.trained import TRAINED_GRAPHS

    return TRAINED_GRAPHS[name]


def available_graphs() -> List[str]:
    """All resolvable graph names, sorted."""
    from repro.graphs.trained import TRAINED_GRAPHS

    return sorted(set(_DYNAMIC) | set(TRAINED_GRAPHS))


def resolve_graph_codec(name: str) -> Optional[GraphCompressor]:
    """Codec for ``graph:<name>`` lookups; ``None`` when unknown.

    Called by :func:`repro.codecs.base.get_codec`, which turns ``None``
    into its usual ``CodecError``.
    """
    try:
        spec = get_graph(name)
    except KeyError:
        return None
    return GraphCompressor(name, spec)

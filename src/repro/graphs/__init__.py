"""repro.graphs — OpenZL-style graph compression.

A compressor modeled as an explicit DAG of invertible transform nodes:
structure-aware splitters (``tokenize``, ``floatsplit``), value
transforms (``transpose``, ``delta``, ``zigzag``, ``varint``), and
terminal entropy/LZ leaves that reuse the flat :mod:`repro.codecs`
backends. Graphs serialize to a self-describing multi-frame stream and
execute behind the ordinary codec registry as ``graph:<name>``.

See ``docs/graphs.md`` for the format and the training workflow.
"""

from repro.graphs.codec import GraphCompressor, decode_graph_header
from repro.graphs.model import (
    GraphSpecError,
    canonical_bytes,
    format_spec,
    parse_spec,
    spec_fingerprint,
    spec_label,
    validate_spec,
)
from repro.graphs.registry import (
    available_graphs,
    get_graph,
    register_graph,
    resolve_graph_codec,
)
from repro.graphs.trained import TRAINED_GRAPHS

__all__ = [
    "GraphCompressor",
    "GraphSpecError",
    "TRAINED_GRAPHS",
    "available_graphs",
    "canonical_bytes",
    "decode_graph_header",
    "format_spec",
    "get_graph",
    "parse_spec",
    "register_graph",
    "resolve_graph_codec",
    "spec_fingerprint",
    "spec_label",
    "validate_spec",
]

"""repro.graphs — OpenZL-style graph compression.

A compressor modeled as an explicit DAG of invertible transform nodes:
structure-aware splitters (``tokenize``, ``floatsplit``), value
transforms (``transpose``, ``delta``, ``zigzag``, ``varint``), and
terminal entropy/LZ leaves that reuse the flat :mod:`repro.codecs`
backends. Graphs serialize to a self-describing multi-frame stream and
execute behind the ordinary codec registry as ``graph:<name>``.

See ``docs/graphs.md`` for the format and the training workflow.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.graphs.codec": ("GraphCompressor", "decode_graph_header"),
        "repro.graphs.model": (
            "GraphSpecError",
            "canonical_bytes",
            "format_spec",
            "parse_spec",
            "spec_fingerprint",
            "spec_label",
            "validate_spec",
        ),
        "repro.graphs.registry": (
            "available_graphs",
            "get_graph",
            "register_graph",
            "resolve_graph_codec",
        ),
        "repro.graphs.trained": ("TRAINED_GRAPHS",),
    },
)

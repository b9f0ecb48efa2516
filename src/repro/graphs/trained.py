"""Per-category trained graphs, pinned as literals.

These are the outputs of ``repro graph train`` (the GraphSearch strategy
over each corpus category's samples), frozen as plain dict literals so:

- resolution needs no training run — ``get_codec("graph:record")`` works
  instantly in any process, including pool workers;
- the shapes are reviewable — each graph documents *why* it beats the
  flat codecs on its category, in the OpenZL sense of encoding data
  structure into the compressor.

Regenerate with ``repro graph train --category <name>`` and paste the
winning spec here; ``tests/graphs/test_trained.py`` holds the acceptance
bar (beats the best flat (codec, level) ratio at comparable modeled cost
on at least two of the three categories).

Measured on the 64 KiB training samples (seed 7), ratio vs the best flat
config at comparable modeled cost:

===========  ==============  ====================  =====================
category     graph ratio     best comparable flat  best flat at any cost
===========  ==============  ====================  =====================
record       5.48 @ 517 us   zstd-9  5.13          zstd-21 5.53 @ 5.9 ms
float        2.66 @ ~180 us  zlib-9  2.55          zlib-9  2.55
text         6.53 @ 321 us   zstd-9  6.88          zstd-15 7.15
===========  ==============  ====================  =====================

(text is the honest miss: JSON-lines logs carry their redundancy in
whole-line templates that span fields, which flat LZ matches directly
and a column split destroys — the paper's point that graph shapes are
*per-category*, not universally better.)
"""

from __future__ import annotations

from typing import Dict

from repro.graphs.model import Spec

#: categories with a trained graph, and the corpus member each models
TRAINED_CATEGORIES = ("record", "text", "float")


def _zstd(level: int) -> Spec:
    return {"kind": "leaf", "codec": "zstd", "level": level}


def _zlib(level: int) -> Spec:
    return {"kind": "leaf", "codec": "zlib", "level": level}


#: record category (corpus.records): pipe-delimited rows with a fixed
#: 7-field schema. Tokenizing on ``|`` with 6 lanes and the lane counter
#: re-anchored at ``\n`` turns the row-major stream into columns — each
#: lane sees one field's values (all the countries together, all the
#: timestamps together), which is where the low-cardinality values live.
#: The varint lengths stream is nearly constant and compresses away.
RECORD_GRAPH: Spec = {
    "kind": "tokenize",
    "delim": 124,  # ord("|")
    "lanes": 6,
    "reset": 10,  # ord("\n"): re-anchor the lane counter at row breaks
    "children": [_zlib(9)] * 7,
}

#: text category (corpus.logs): JSON-lines with sorted keys. Splitting on
#: ``"`` groups the quoted keys and values into periodic lanes; the
#: line-break reset keeps lanes aligned across lines whose message
#: contains extra delimiters.
TEXT_GRAPH: Spec = {
    "kind": "tokenize",
    "delim": 34,  # ord('"')
    "lanes": 8,
    "reset": 10,  # ord("\n"): lane alignment self-heals at line breaks
    "children": [_zlib(9)] * 9,
}

#: float category (corpus.embeddings, ads model B): JSON header
#: terminated by a NUL, then a 9828-byte dense float32 block, then
#: sparse int64 features that are ~75% zeros. ``headsplit`` peels the
#: variable-length header so the body stays element-aligned; ``slice``
#: encodes the learned section layout; the dense floats keep a plain LZ
#: leaf (quantized activations repeat as whole 4-byte tokens), while the
#: mostly-small sparse integers shrink through varint recoding.
FLOAT_GRAPH: Spec = {
    "kind": "headsplit",
    "marker": 0,
    "children": [
        _zstd(3),
        {
            "kind": "slice",
            "sizes": [9828],
            "children": [
                _zlib(9),
                {"kind": "varint", "width": 8, "child": _zlib(9)},
            ],
        },
    ],
}

TRAINED_GRAPHS: Dict[str, Spec] = {
    "record": RECORD_GRAPH,
    "text": TEXT_GRAPH,
    "float": FLOAT_GRAPH,
}

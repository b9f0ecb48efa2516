"""The graph model: compressors as DAGs of invertible transforms.

OpenZL (PAPERS.md) models a compressor not as one monolithic codec but as
a *graph of composable transforms*: structure-aware splitters tear a
payload into homogeneous streams, value transforms (delta, zigzag,
varint) concentrate its entropy, and generic entropy/LZ stages finish the
job. The shape of the graph — not the codec — is what gets specialized
per data category.

This module defines the graph *specification*: a nested, JSON-able node
tree, its validation rules, and its canonical byte encoding. The
canonical encoding is what travels in the stream header
(:mod:`repro.graphs.stream`), so two constraints are load-bearing:

- **determinism** — ``canonical_bytes`` is a pure function of the spec
  (sorted keys, fixed separators), so identical graphs serialize
  byte-identically everywhere, including pool workers;
- **hostility** — specs are parsed from untrusted payloads at decode
  time, so validation caps node counts, depth, and fan-out before any
  transform executes.

Each node is a plain dict with a ``kind`` key:

========== ============================================= ==============
kind       parameters                                    children
========== ============================================= ==============
leaf       ``codec`` (registry name), ``level``          terminal
store      —                                             terminal
transpose  ``width`` (2..32)                             ``child``
delta      ``width`` (1/2/4/8)                           ``child``
zigzag     ``width`` (1/2/4/8)                           ``child``
varint     ``width`` (1/2/4/8)                           ``child``
tokenize   ``delim`` (0..255), ``lanes`` (1..8),         ``children``
           optional ``reset`` (0..255) — splits on a     (1 + lanes)
           delimiter byte; lengths stream plus
           round-robin token lanes; the lane counter
           restarts after any token containing the
           ``reset`` byte (the row boundary), so lanes
           stay column-aligned across records
floatsplit ``width`` (2/4/8), ``hi`` (1..width-1)        ``children``
           — per-element byte split: high (sign/exponent) (2)
           stream and low (mantissa) stream
headsplit  ``marker`` (0..255) — splits at the *first*    ``children``
           marker byte: prefix (through the marker) one   (2)
           way, remainder the other; isolates a textual
           header from an aligned binary body
slice      ``sizes`` (1..4 byte counts) — fixed-offset    ``children``
           section split: child *i* gets ``sizes[i]``     (len+1)
           bytes, the last child the remainder; encodes
           a learned wire-format layout (dense floats
           here, sparse ints there) into the graph
========== ============================================= ==============
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator, List, Tuple

Spec = Dict[str, object]
Path = Tuple[int, ...]


class GraphSpecError(ValueError):
    """Raised when a graph specification violates the grammar."""


#: hard caps enforced on every spec, including ones parsed from payloads
MAX_NODES = 24
#: maximum number of transform nodes on any root-to-leaf path
MAX_DEPTH = 6

#: element widths the value transforms accept
VALUE_WIDTHS = (1, 2, 4, 8)
#: widths floatsplit accepts (float16/float32/float64-shaped elements)
FLOAT_WIDTHS = (2, 4, 8)
#: transpose width bounds
TRANSPOSE_MIN_WIDTH, TRANSPOSE_MAX_WIDTH = 2, 32
#: tokenize lane bounds
MAX_LANES = 8

#: node kinds with exactly one child under the ``child`` key
SINGLE_CHILD_KINDS = ("transpose", "delta", "zigzag", "varint")
#: node kinds with a ``children`` list
MULTI_CHILD_KINDS = ("tokenize", "floatsplit", "headsplit", "slice")

#: slice caps: section count and single-section byte size
MAX_SLICE_SECTIONS = 4
MAX_SLICE_BYTES = 1 << 24
#: terminal node kinds
TERMINAL_KINDS = ("leaf", "store")
ALL_KINDS = TERMINAL_KINDS + SINGLE_CHILD_KINDS + MULTI_CHILD_KINDS


def _require_int(node: Spec, key: str, kind: str) -> int:
    value = node.get(key)
    # bool is an int subclass; a graph header saying {"width": true} is bad
    if not isinstance(value, int) or isinstance(value, bool):
        raise GraphSpecError(f"{kind} node needs integer {key!r}, got {value!r}")
    return value


def children_of(node: Spec) -> List[Spec]:
    """The child specs of a node, in edge order (empty for terminals)."""
    kind = node.get("kind")
    if kind in SINGLE_CHILD_KINDS:
        return [node["child"]]
    if kind in MULTI_CHILD_KINDS:
        return list(node["children"])
    return []


def with_children(node: Spec, children: List[Spec]) -> Spec:
    """A copy of ``node`` with its child edges replaced."""
    out = {k: v for k, v in node.items() if k not in ("child", "children")}
    kind = node.get("kind")
    if kind in SINGLE_CHILD_KINDS:
        if len(children) != 1:
            raise GraphSpecError(f"{kind} takes exactly one child")
        out["child"] = children[0]
    elif kind in MULTI_CHILD_KINDS:
        out["children"] = list(children)
    elif children:
        raise GraphSpecError(f"{kind} is terminal, got children")
    return out


def validate_spec(spec: Spec) -> None:
    """Check a spec against the grammar; raises :class:`GraphSpecError`.

    Codec names on leaves are validated *syntactically* here (non-empty
    string, not itself a graph); existence in the codec registry is
    checked when the graph executes, so specs can be validated in
    processes that have not registered every codec yet.
    """
    count = _validate_node(spec, depth=0)
    if count > MAX_NODES:
        raise GraphSpecError(f"graph has {count} nodes, cap is {MAX_NODES}")


def _validate_node(node: Spec, depth: int) -> int:
    if depth > MAX_DEPTH:
        raise GraphSpecError(f"graph deeper than {MAX_DEPTH} transforms")
    if not isinstance(node, dict):
        raise GraphSpecError(f"node must be an object, got {type(node).__name__}")
    kind = node.get("kind")
    if kind not in ALL_KINDS:
        raise GraphSpecError(f"unknown node kind {kind!r}")
    if kind == "leaf":
        codec = node.get("codec")
        if not isinstance(codec, str) or not codec:
            raise GraphSpecError("leaf node needs a codec name")
        if codec.startswith("graph:"):
            raise GraphSpecError("graphs do not nest: leaf codec cannot be a graph")
        _require_int(node, "level", kind)
        return 1
    if kind == "store":
        return 1
    if kind == "transpose":
        width = _require_int(node, "width", kind)
        if not TRANSPOSE_MIN_WIDTH <= width <= TRANSPOSE_MAX_WIDTH:
            raise GraphSpecError(
                f"transpose width {width} outside "
                f"{TRANSPOSE_MIN_WIDTH}..{TRANSPOSE_MAX_WIDTH}"
            )
    elif kind in ("delta", "zigzag", "varint"):
        width = _require_int(node, "width", kind)
        if width not in VALUE_WIDTHS:
            raise GraphSpecError(f"{kind} width {width} not in {VALUE_WIDTHS}")
    elif kind == "tokenize":
        delim = _require_int(node, "delim", kind)
        if not 0 <= delim <= 255:
            raise GraphSpecError(f"tokenize delim {delim} outside 0..255")
        lanes = _require_int(node, "lanes", kind)
        if not 1 <= lanes <= MAX_LANES:
            raise GraphSpecError(f"tokenize lanes {lanes} outside 1..{MAX_LANES}")
        if "reset" in node:
            reset = _require_int(node, "reset", kind)
            if not 0 <= reset <= 255:
                raise GraphSpecError(
                    f"tokenize reset {reset} outside 0..255"
                )
        kids = node.get("children")
        if not isinstance(kids, list) or len(kids) != 1 + lanes:
            raise GraphSpecError(
                f"tokenize with {lanes} lanes needs {1 + lanes} children"
            )
    elif kind == "floatsplit":
        width = _require_int(node, "width", kind)
        if width not in FLOAT_WIDTHS:
            raise GraphSpecError(f"floatsplit width {width} not in {FLOAT_WIDTHS}")
        hi = _require_int(node, "hi", kind)
        if not 1 <= hi <= width - 1:
            raise GraphSpecError(f"floatsplit hi {hi} outside 1..{width - 1}")
        kids = node.get("children")
        if not isinstance(kids, list) or len(kids) != 2:
            raise GraphSpecError("floatsplit needs exactly 2 children")
    elif kind == "headsplit":
        marker = _require_int(node, "marker", kind)
        if not 0 <= marker <= 255:
            raise GraphSpecError(f"headsplit marker {marker} outside 0..255")
        kids = node.get("children")
        if not isinstance(kids, list) or len(kids) != 2:
            raise GraphSpecError("headsplit needs exactly 2 children")
    elif kind == "slice":
        sizes = node.get("sizes")
        if (
            not isinstance(sizes, list)
            or not 1 <= len(sizes) <= MAX_SLICE_SECTIONS
        ):
            raise GraphSpecError(
                f"slice needs 1..{MAX_SLICE_SECTIONS} sizes"
            )
        for size in sizes:
            if not isinstance(size, int) or isinstance(size, bool):
                raise GraphSpecError(f"slice size {size!r} is not an integer")
            if not 0 <= size <= MAX_SLICE_BYTES:
                raise GraphSpecError(
                    f"slice size {size} outside 0..{MAX_SLICE_BYTES}"
                )
        kids = node.get("children")
        if not isinstance(kids, list) or len(kids) != len(sizes) + 1:
            raise GraphSpecError(
                f"slice with {len(sizes)} sizes needs {len(sizes) + 1} children"
            )
    if kind in SINGLE_CHILD_KINDS and "child" not in node:
        raise GraphSpecError(f"{kind} node needs a child")
    count = 1
    for child in children_of(node):
        count += _validate_node(child, depth + 1)
        if count > MAX_NODES:
            raise GraphSpecError(f"graph exceeds {MAX_NODES} nodes")
    return count


# -- canonical encoding -------------------------------------------------------


def canonical_bytes(spec: Spec) -> bytes:
    """The canonical byte encoding of a spec (the stream-header form)."""
    return json.dumps(
        spec, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def parse_spec(data: bytes) -> Spec:
    """Parse and validate a canonical encoding.

    Raises :class:`GraphSpecError` for anything that is not a valid
    graph — the caller decides whether that means "bad argument" or
    "corrupt stream".
    """
    try:
        spec = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise GraphSpecError(f"graph header is not valid JSON: {exc}") from exc
    validate_spec(spec)
    return spec


def spec_fingerprint(spec: Spec) -> str:
    """Short stable fingerprint of a spec (names search candidates)."""
    return hashlib.blake2b(canonical_bytes(spec), digest_size=8).hexdigest()


# -- traversal helpers (used by the search's mutation operators) --------------


def iter_paths(spec: Spec) -> Iterator[Tuple[Path, Spec]]:
    """Yield ``(path, node)`` for every node, in DFS pre-order.

    A path is the tuple of child indices from the root; the root's path
    is ``()``.
    """
    stack: List[Tuple[Path, Spec]] = [((), spec)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = children_of(node)
        for index in range(len(kids) - 1, -1, -1):
            stack.append((path + (index,), kids[index]))


def node_at(spec: Spec, path: Path) -> Spec:
    node = spec
    for index in path:
        node = children_of(node)[index]
    return node


def replace_at(spec: Spec, path: Path, replacement: Spec) -> Spec:
    """A new spec with the node at ``path`` swapped for ``replacement``."""
    if not path:
        return replacement
    kids = children_of(spec)
    index = path[0]
    kids[index] = replace_at(kids[index], path[1:], replacement)
    return with_children(spec, kids)


def spec_label(spec: Spec) -> str:
    """Compact single-line rendering, e.g. ``transpose(8)>leaf(zstd-3)``."""
    kind = spec.get("kind")
    if kind == "leaf":
        return f"leaf({spec['codec']}-{spec['level']})"
    if kind == "store":
        return "store"
    if kind == "tokenize":
        inner = ",".join(spec_label(c) for c in children_of(spec))
        extra = f",r{spec['reset']}" if "reset" in spec else ""
        return f"tokenize({spec['delim']},{spec['lanes']}{extra})[{inner}]"
    if kind == "floatsplit":
        inner = ",".join(spec_label(c) for c in children_of(spec))
        return f"floatsplit({spec['width']},{spec['hi']})[{inner}]"
    if kind == "headsplit":
        inner = ",".join(spec_label(c) for c in children_of(spec))
        return f"headsplit({spec['marker']})[{inner}]"
    if kind == "slice":
        inner = ",".join(spec_label(c) for c in children_of(spec))
        sizes = ",".join(str(s) for s in spec["sizes"])
        return f"slice({sizes})[{inner}]"
    return f"{kind}({spec['width']})>{spec_label(spec['child'])}"


def format_spec(spec: Spec, indent: int = 0) -> str:
    """Multi-line tree rendering for ``repro graph describe``."""
    pad = "  " * indent
    kind = spec.get("kind")
    if kind == "leaf":
        return f"{pad}leaf codec={spec['codec']} level={spec['level']}"
    if kind == "store":
        return f"{pad}store"
    if kind == "tokenize":
        head = f"{pad}tokenize delim={spec['delim']} lanes={spec['lanes']}"
        if "reset" in spec:
            head += f" reset={spec['reset']}"
        parts = [head]
        labels = ["lengths"] + [f"lane{j}" for j in range(int(spec["lanes"]))]
        for label, child in zip(labels, children_of(spec)):
            parts.append(f"{pad}  [{label}]")
            parts.append(format_spec(child, indent + 2))
        return "\n".join(parts)
    if kind == "floatsplit":
        head = f"{pad}floatsplit width={spec['width']} hi={spec['hi']}"
        parts = [head]
        for label, child in zip(("high", "low"), children_of(spec)):
            parts.append(f"{pad}  [{label}]")
            parts.append(format_spec(child, indent + 2))
        return "\n".join(parts)
    if kind == "headsplit":
        parts = [f"{pad}headsplit marker={spec['marker']}"]
        for label, child in zip(("head", "body"), children_of(spec)):
            parts.append(f"{pad}  [{label}]")
            parts.append(format_spec(child, indent + 2))
        return "\n".join(parts)
    if kind == "slice":
        sizes = list(spec["sizes"])
        parts = [f"{pad}slice sizes={sizes}"]
        labels = [f"sec{j}({s}B)" for j, s in enumerate(sizes)] + ["rest"]
        for label, child in zip(labels, children_of(spec)):
            parts.append(f"{pad}  [{label}]")
            parts.append(format_spec(child, indent + 2))
        return "\n".join(parts)
    head = f"{pad}{kind} width={spec['width']}"
    return "\n".join([head, format_spec(spec["child"], indent + 1)])

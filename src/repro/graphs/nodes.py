"""The transform node catalog: invertible byte-stream transforms.

Every transform is *total* (defined for any input bytes, including empty,
one byte, and lengths that do not divide the element width) and
*invertible* (``decode(encode(x)) == x`` exactly). Partial trailing
elements are carried as an uncompressed tail inside one of the output
streams, so alignment is never a precondition — it only affects how much
the transform helps.

Encoding never fails. Decoding consumes streams that may have been
corrupted in flight, so every structural inconsistency (lane lengths that
do not add up, varints overflowing their width, a high stream that does
not divide by the element size) raises
:class:`~repro.codecs.base.CorruptDataError` — the E001 decode-boundary
contract, which ``repro lint`` now enforces for this package too.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.codecs.base import CorruptDataError
from repro.codecs.varint import read_uvarint, write_uvarint
from repro.graphs.model import Spec

_UINT_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}


class TransformKind:
    """One entry of the node catalog.

    ``encode`` maps input bytes to a list of output streams; ``decode``
    inverts it. Both are pure functions of (node params, data).
    """

    name: str = ""

    def encode(self, node: Spec, data: bytes) -> List[bytes]:
        raise NotImplementedError

    def decode(self, node: Spec, streams: List[bytes]) -> bytes:
        raise NotImplementedError


TRANSFORMS: Dict[str, TransformKind] = {}


def _register(cls):
    TRANSFORMS[cls.name] = cls()
    return cls


def _split_body(data: bytes, width: int):
    """(aligned body, raw tail) split at the last complete element."""
    cut = (len(data) // width) * width
    return data[:cut], data[cut:]


@_register
class TransposeKind(TransformKind):
    """Byte-plane transpose over ``width``-byte elements.

    Row-major elements become column-major byte planes: plane 0 holds
    every element's byte 0, plane 1 every byte 1, ... For little-endian
    numeric data this groups the high-order (mostly-zero or slowly
    varying) bytes into long homogeneous runs — the column-transpose
    trick ORC and OpenZL both lean on.
    """

    name = "transpose"

    def encode(self, node: Spec, data: bytes) -> List[bytes]:
        width = int(node["width"])
        body, tail = _split_body(data, width)
        if not body:
            return [tail]
        planes = (
            np.frombuffer(body, dtype=np.uint8)
            .reshape(-1, width)
            .T.tobytes()
        )
        return [planes + tail]

    def decode(self, node: Spec, streams: List[bytes]) -> bytes:
        width = int(node["width"])
        data = streams[0]
        rows = len(data) // width
        cut = rows * width
        body, tail = data[:cut], data[cut:]
        if not body:
            return tail
        restored = (
            np.frombuffer(body, dtype=np.uint8)
            .reshape(width, -1)
            .T.tobytes()
        )
        return restored + tail


@_register
class DeltaKind(TransformKind):
    """Element-wise delta with wrap-around, little-endian unsigned.

    Monotone or slowly drifting sequences (timestamps, row ids, sorted
    keys) become streams of tiny residuals; composing with ``zigzag`` +
    ``varint`` then shrinks them physically.
    """

    name = "delta"

    def encode(self, node: Spec, data: bytes) -> List[bytes]:
        width = int(node["width"])
        body, tail = _split_body(data, width)
        if not body:
            return [tail]
        values = np.frombuffer(body, dtype=_UINT_DTYPES[width])
        out = np.empty_like(values)
        out[0] = values[0]
        # unsigned subtraction wraps mod 2^(8*width) -- exactly invertible
        np.subtract(values[1:], values[:-1], out=out[1:])
        return [out.tobytes() + tail]

    def decode(self, node: Spec, streams: List[bytes]) -> bytes:
        width = int(node["width"])
        body, tail = _split_body(streams[0], width)
        if not body:
            return tail
        deltas = np.frombuffer(body, dtype=_UINT_DTYPES[width])
        values = np.cumsum(deltas, dtype=deltas.dtype)
        return values.tobytes() + tail


@_register
class ZigzagKind(TransformKind):
    """Zigzag-map signed elements so small magnitudes get small codes.

    Interprets each aligned element as two's-complement signed; maps
    0, -1, 1, -2, ... to 0, 1, 2, 3, ... Size-preserving on its own —
    the payoff comes from a downstream ``varint`` or entropy leaf.
    """

    name = "zigzag"

    def encode(self, node: Spec, data: bytes) -> List[bytes]:
        width = int(node["width"])
        body, tail = _split_body(data, width)
        if not body:
            return [tail]
        bits = np.uint64(8 * width - 1)
        v = np.frombuffer(body, dtype=_UINT_DTYPES[width]).astype(np.uint64)
        sign = np.uint64(0) - (v >> bits)  # all-ones when the sign bit is set
        z = ((v << np.uint64(1)) ^ sign) & _mask(width)
        return [z.astype(_UINT_DTYPES[width]).tobytes() + tail]

    def decode(self, node: Spec, streams: List[bytes]) -> bytes:
        width = int(node["width"])
        body, tail = _split_body(streams[0], width)
        if not body:
            return tail
        z = np.frombuffer(body, dtype=_UINT_DTYPES[width]).astype(np.uint64)
        v = ((z >> np.uint64(1)) ^ (np.uint64(0) - (z & np.uint64(1)))) & _mask(
            width
        )
        return v.astype(_UINT_DTYPES[width]).tobytes() + tail


def _mask(width: int) -> np.uint64:
    if width == 8:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << (8 * width)) - 1)


@_register
class VarintKind(TransformKind):
    """LEB128-recode aligned unsigned elements (via :mod:`codecs.varint`).

    The only size-changing value transform: mostly-small values (zigzagged
    deltas, sparse ids) shrink toward one byte each. The stream is
    self-framing: element count, then the varints, then the raw tail.
    """

    name = "varint"

    def encode(self, node: Spec, data: bytes) -> List[bytes]:
        width = int(node["width"])
        body, tail = _split_body(data, width)
        out = bytearray()
        count = len(body) // width
        write_uvarint(out, count)
        for value in np.frombuffer(body, dtype=_UINT_DTYPES[width]).tolist():
            write_uvarint(out, value)
        return [bytes(out) + tail]

    def decode(self, node: Spec, streams: List[bytes]) -> bytes:
        width = int(node["width"])
        data = streams[0]
        count, pos = read_uvarint(data, 0)
        if count > len(data):  # each varint takes at least one byte
            raise CorruptDataError(
                f"varint stream claims {count} elements in {len(data)} bytes"
            )
        limit = 1 << (8 * width)
        values = []
        for __ in range(count):
            value, pos = read_uvarint(data, pos)
            if value >= limit:
                raise CorruptDataError(
                    f"varint value {value} overflows width {width}"
                )
            values.append(value)
        body = np.asarray(values, dtype=_UINT_DTYPES[width]).tobytes()
        return body + data[pos:]


class _LaneCounter:
    """Token → lane assignment state machine, shared by encode and decode.

    Round-robin over ``lanes``; when a ``reset`` byte is configured the
    counter restarts after any token containing it (the row boundary).
    Record formats merge a row's last field and the next row's first
    field into one token (no delimiter crosses the row break), which
    would rotate a plain ``i % lanes`` assignment by one field per row;
    the reset re-anchors field *k* to lane *k* at every row, so lanes
    stay column-pure and the alignment self-heals after irregular rows.
    """

    def __init__(self, node: Spec):
        self._lanes = int(node["lanes"])
        reset = node.get("reset")
        self._reset = None if reset is None else bytes([int(reset)])
        self._index = 0

    def lane(self) -> int:
        return self._index % self._lanes

    def advance(self, token: bytes) -> None:
        if self._reset is not None and self._reset in token:
            self._index = 0
        else:
            self._index += 1


@_register
class TokenizeKind(TransformKind):
    """Structure-aware field split on a delimiter byte.

    ``data.split(delim)`` yields tokens; a lengths stream (varint count +
    varint token lengths) records how to stitch them back, and each token
    goes to the lane chosen by :class:`_LaneCounter`. With ``lanes``
    equal to the record's field count and ``reset`` set to the row
    delimiter, each lane collects one *column* of a record-structured
    payload — the field-split / struct-tokenize stage for
    ``corpus.records``-style data — so every lane's leaf sees a
    low-entropy, self-similar stream.
    """

    name = "tokenize"

    def encode(self, node: Spec, data: bytes) -> List[bytes]:
        delim = bytes([int(node["delim"])])
        lanes = int(node["lanes"])
        tokens = data.split(delim)
        lengths = bytearray()
        write_uvarint(lengths, len(tokens))
        buckets = [bytearray() for __ in range(lanes)]
        counter = _LaneCounter(node)
        for token in tokens:
            write_uvarint(lengths, len(token))
            buckets[counter.lane()].extend(token)
            counter.advance(token)
        return [bytes(lengths)] + [bytes(b) for b in buckets]

    def decode(self, node: Spec, streams: List[bytes]) -> bytes:
        delim = bytes([int(node["delim"])])
        lengths, lane_streams = streams[0], streams[1:]
        count, pos = read_uvarint(lengths, 0)
        if count > len(lengths) + 1:  # each length takes >= 1 byte
            raise CorruptDataError(
                f"tokenize lengths stream claims {count} tokens "
                f"in {len(lengths)} bytes"
            )
        offsets = [0] * len(lane_streams)
        tokens: List[bytes] = []
        counter = _LaneCounter(node)
        for index in range(count):
            size, pos = read_uvarint(lengths, pos)
            # the lane for token i depends only on tokens < i, all already
            # reassembled, so replaying the encoder's counter is exact
            lane = counter.lane()
            stream = lane_streams[lane]
            start = offsets[lane]
            if start + size > len(stream):
                raise CorruptDataError(
                    f"tokenize lane {lane} exhausted: token {index} needs "
                    f"{size} bytes at offset {start} of {len(stream)}"
                )
            token = stream[start : start + size]
            offsets[lane] = start + size
            counter.advance(token)
            tokens.append(token)
        if pos != len(lengths):
            raise CorruptDataError("tokenize lengths stream has trailing bytes")
        for lane, (offset, stream) in enumerate(zip(offsets, lane_streams)):
            if offset != len(stream):
                raise CorruptDataError(
                    f"tokenize lane {lane} has {len(stream) - offset} "
                    "unconsumed bytes"
                )
        if not tokens:
            raise CorruptDataError("tokenize stream decodes to zero tokens")
        return delim.join(tokens)


@_register
class FloatSplitKind(TransformKind):
    """Per-element byte split: high bytes one way, low bytes the other.

    For little-endian float data the top ``hi`` bytes of each element
    carry sign and exponent (low entropy, compresses hard) while the low
    bytes carry mantissa noise (often best stored raw). Splitting them
    into separate edges lets the graph give each its own subtree — the
    float-decomposition stage for ``corpus.embeddings``.
    """

    name = "floatsplit"

    def encode(self, node: Spec, data: bytes) -> List[bytes]:
        width = int(node["width"])
        hi = int(node["hi"])
        body, tail = _split_body(data, width)
        if not body:
            return [b"", tail]
        grid = np.frombuffer(body, dtype=np.uint8).reshape(-1, width)
        high = grid[:, width - hi :].tobytes()
        low = grid[:, : width - hi].tobytes()
        return [high, low + tail]

    def decode(self, node: Spec, streams: List[bytes]) -> bytes:
        width = int(node["width"])
        hi = int(node["hi"])
        high, low_and_tail = streams
        if len(high) % hi:
            raise CorruptDataError(
                f"floatsplit high stream {len(high)} not divisible by hi={hi}"
            )
        count = len(high) // hi
        low_size = count * (width - hi)
        if len(low_and_tail) < low_size:
            raise CorruptDataError(
                f"floatsplit low stream {len(low_and_tail)} shorter than "
                f"{low_size} required"
            )
        low, tail = low_and_tail[:low_size], low_and_tail[low_size:]
        if not count:
            return tail
        grid = np.empty((count, width), dtype=np.uint8)
        grid[:, width - hi :] = np.frombuffer(high, dtype=np.uint8).reshape(
            count, hi
        )
        grid[:, : width - hi] = np.frombuffer(low, dtype=np.uint8).reshape(
            count, width - hi
        )
        return grid.tobytes() + tail


@_register
class HeadSplitKind(TransformKind):
    """Split at the first occurrence of a marker byte.

    The prefix — up to and including the marker — goes to the first
    child, the remainder to the second. When the marker is absent the
    whole input is the prefix. Decode is plain concatenation, so the
    transform is invertible by construction; its value is alignment: a
    variable-length textual header (``corpus.embeddings``' JSON preamble
    ends with a NUL) stops shifting the binary body, so a downstream
    ``transpose`` sees element-aligned data.
    """

    name = "headsplit"

    def encode(self, node: Spec, data: bytes) -> List[bytes]:
        marker = bytes([int(node["marker"])])
        index = data.find(marker)
        if index < 0:
            return [data, b""]
        return [data[: index + 1], data[index + 1 :]]

    def decode(self, node: Spec, streams: List[bytes]) -> bytes:
        head, body = streams
        marker = bytes([int(node["marker"])])
        inner = head.find(marker)
        if 0 <= inner < len(head) - 1:
            raise CorruptDataError(
                "headsplit head stream contains the marker before its end"
            )
        if head.find(marker) < 0 and body:
            raise CorruptDataError(
                "headsplit head stream lacks the marker but a body follows"
            )
        return head + body


@_register
class SliceKind(TransformKind):
    """Fixed-offset section split — a learned wire-format layout.

    Child *i* receives the next ``sizes[i]`` bytes, the final child the
    remainder. Payload categories with a constant binary layout (the ads
    request: header, dense float32 block, sparse int64 block) get each
    section routed to the subtree that suits it — raw LZ for the float
    tokens, transpose for the mostly-zero integers. Short inputs just
    leave the later sections empty; decode is concatenation plus shape
    checks.
    """

    name = "slice"

    def encode(self, node: Spec, data: bytes) -> List[bytes]:
        sizes = [int(s) for s in node["sizes"]]
        streams: List[bytes] = []
        pos = 0
        for size in sizes:
            streams.append(data[pos : pos + size])
            pos += size
        streams.append(data[pos:])
        return streams

    def decode(self, node: Spec, streams: List[bytes]) -> bytes:
        sizes = [int(s) for s in node["sizes"]]
        exhausted = False
        for index, (size, stream) in enumerate(zip(sizes, streams)):
            if exhausted and stream:
                raise CorruptDataError(
                    f"slice section {index} is non-empty after a short section"
                )
            if len(stream) > size:
                raise CorruptDataError(
                    f"slice section {index} has {len(stream)} bytes, "
                    f"cap is {size}"
                )
            if len(stream) < size:
                exhausted = True
        if exhausted and streams[-1]:
            raise CorruptDataError(
                "slice remainder is non-empty after a short section"
            )
        return b"".join(streams)


def transform_for(kind: str) -> TransformKind:
    """Catalog lookup; raises for unknown kinds (validation runs first)."""
    return TRANSFORMS[kind]


def encode_transform(node: Spec, data: bytes) -> List[bytes]:
    return transform_for(str(node["kind"])).encode(node, data)


def decode_transform(node: Spec, streams: List[bytes]) -> bytes:
    return transform_for(str(node["kind"])).decode(node, streams)

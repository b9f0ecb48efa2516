"""Property tests: every transform round-trips on adversarial inputs.

Each transform kind must be *total* (accept any byte string, aligned or
not) and *invertible* (decode(encode(x)) == x exactly). The inputs here
are the regimes where structural transforms break: empty, single byte,
lengths that do not divide the element width, all-equal runs, inputs with
no delimiter at all, and inputs that are nothing but delimiters.
"""

import random

import pytest

from repro.graphs.nodes import decode_transform, encode_transform

_LEAF = {"kind": "leaf", "codec": "zstd", "level": 1}


def _random_bytes(size: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(size))


def _adversarial_payloads():
    """Payloads chosen to straddle alignment and degenerate-content edges."""
    return [
        b"",
        b"\x00",
        b"|",
        b"x" * 1,
        b"\x7c" * 64,  # all delimiter bytes
        b"A" * 257,  # all-equal, non-aligned for widths 2/4/8
        bytes(range(256)),
        _random_bytes(33, 1),  # 33 = 8*4 + 1: unaligned tail for every width
        _random_bytes(1023, 2),
        b"id=1|country=US|\nid=2|country=BR|\n" * 8,
    ]


def _roundtrip(node, data):
    streams = encode_transform(node, data)
    decoded = decode_transform(node, streams)
    assert decoded == data, (
        f"{node} failed to round-trip {len(data)} bytes "
        f"(got {len(decoded)} back)"
    )


@pytest.mark.parametrize("width", [2, 3, 4, 8, 16, 32])
@pytest.mark.parametrize("data", _adversarial_payloads())
def test_transpose_roundtrip(width, data):
    _roundtrip({"kind": "transpose", "width": width, "child": _LEAF}, data)


@pytest.mark.parametrize("kind", ["delta", "zigzag", "varint"])
@pytest.mark.parametrize("width", [1, 2, 4, 8])
@pytest.mark.parametrize("data", _adversarial_payloads())
def test_value_transform_roundtrip(kind, width, data):
    _roundtrip({"kind": kind, "width": width, "child": _LEAF}, data)


@pytest.mark.parametrize("delim", [0, 10, 124])
@pytest.mark.parametrize("lanes", [1, 3, 8])
@pytest.mark.parametrize("data", _adversarial_payloads())
def test_tokenize_roundtrip(delim, lanes, data):
    node = {
        "kind": "tokenize",
        "delim": delim,
        "lanes": lanes,
        "children": [_LEAF] * (1 + lanes),
    }
    _roundtrip(node, data)


@pytest.mark.parametrize("reset", [10, 124])
@pytest.mark.parametrize("data", _adversarial_payloads())
def test_tokenize_reset_roundtrip(reset, data):
    node = {
        "kind": "tokenize",
        "delim": 124,
        "lanes": 6,
        "reset": reset,
        "children": [_LEAF] * 7,
    }
    _roundtrip(node, data)


@pytest.mark.parametrize("width,hi", [(2, 1), (4, 1), (4, 2), (8, 2), (8, 7)])
@pytest.mark.parametrize("data", _adversarial_payloads())
def test_floatsplit_roundtrip(width, hi, data):
    node = {
        "kind": "floatsplit",
        "width": width,
        "hi": hi,
        "children": [_LEAF, _LEAF],
    }
    _roundtrip(node, data)


@pytest.mark.parametrize("marker", [0, 124, 255])
@pytest.mark.parametrize("data", _adversarial_payloads())
def test_headsplit_roundtrip(marker, data):
    node = {"kind": "headsplit", "marker": marker, "children": [_LEAF, _LEAF]}
    _roundtrip(node, data)


@pytest.mark.parametrize(
    "sizes",
    [[1], [64], [100000], [16, 16], [67, 9828, 4], [0, 5]],
)
@pytest.mark.parametrize("data", _adversarial_payloads())
def test_slice_roundtrip(sizes, data):
    node = {
        "kind": "slice",
        "sizes": sizes,
        "children": [_LEAF] * (len(sizes) + 1),
    }
    _roundtrip(node, data)


def test_delta_then_decode_is_exact_on_wraparound():
    """Modular delta must survive values that wrap the width."""
    data = bytes([255, 0, 1, 254, 2]) * 7  # deltas wrap mod 256
    _roundtrip({"kind": "delta", "width": 1, "child": _LEAF}, data)


def test_tokenize_counter_realignment():
    """The reset byte re-anchors field k -> lane k at each row boundary.

    Rows with a *different* number of fields would otherwise rotate the
    round-robin assignment; with reset, alignment self-heals per row.
    """
    rows = b"a|bb|ccc\n" + b"x|y\n" + b"1|22|333\n"
    node = {
        "kind": "tokenize",
        "delim": 124,
        "lanes": 3,
        "reset": 10,
        "children": [_LEAF] * 4,
    }
    _roundtrip(node, rows)

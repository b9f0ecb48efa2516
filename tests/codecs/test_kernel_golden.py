"""Golden contract for the codec kernels: bytes and counters do not move.

Every case pins ``sha256(stream)`` and the full :class:`StageCounters`
tuple of the compress call, the decompress call, and (for the match
finders called directly) ``sha256(repr(tokens))``. The pins in
``kernel_golden.json`` were generated once, before any kernel rewrite, so a
kernel edit that keeps this file green is behaviour-preserving by
construction: same streams, same counters, both directions.

Regenerate (only when a format or counter change is *intended*)::

    PYTHONPATH=src python tests/codecs/test_kernel_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import struct
import sys
from pathlib import Path

import pytest

from repro.codecs import get_codec
from repro.codecs.base import StageCounters
from repro.codecs.matchfinders import MatchFinderParams, finder_for_strategy

PINS_PATH = Path(__file__).with_name("kernel_golden.json")

SIZES = (0, 1, 15, 16, 17, 4096, 40960)
#: (label, codec, level, uses the dictionary) -- every config the wall
#: benchmark runs, plus gzip
CONFIGS = (
    ("lz4-1", "lz4", 1, False),
    ("lz4-9", "lz4", 9, False),
    ("zstd-1", "zstd", 1, False),
    ("zstd-3", "zstd", 3, False),
    ("zstd-9", "zstd", 9, False),
    ("zstd-19", "zstd", 19, False),
    ("zlib-6", "zlib", 6, False),
    ("gzip-6", "gzip", 6, False),
    ("zstd-3-dict", "zstd", 3, True),
)
#: (label, strategy, params) for MatchFinder.parse called directly
FINDER_CASES = (
    ("fast", MatchFinderParams(hash_log=12, strategy="fast")),
    ("fast-accel", MatchFinderParams(hash_log=12, strategy="fast", acceleration=9)),
    ("greedy", MatchFinderParams(hash_log=14, search_depth=4, target_length=16,
                                 strategy="greedy")),
    ("lazy-deflate", MatchFinderParams(window_log=15, hash_log=15, search_depth=32,
                                       min_match=3, target_length=128, lazy_steps=1,
                                       strategy="lazy", max_match=258,
                                       max_offset=32768)),
    ("lazy2", MatchFinderParams(hash_log=15, search_depth=32, target_length=128,
                                lazy_steps=2, strategy="lazy2")),
    ("lazy2-lz4", MatchFinderParams(window_log=16, hash_log=15, search_depth=96,
                                    target_length=1 << 12, lazy_steps=2,
                                    strategy="lazy2", max_offset=65535)),
    ("optimal", MatchFinderParams(hash_log=15, search_depth=16, min_match=3,
                                  target_length=1 << 20, strategy="optimal")),
    ("optimal-window", MatchFinderParams(window_log=10, hash_log=12, search_depth=48,
                                         target_length=1 << 20, strategy="optimal")),
)
_HISTORY = 1500
_FINDER_BODY = 6000

_WORDS = (
    b"the of and to in is that for it as was with be by on not he this are "
    b"or his from at which but have an had they you were their one all we "
    b"can her has there been if more when will would who so no compression "
    b"datacenter service latency throughput window dictionary entropy match"
).split()


def _text(size: int, rng: random.Random) -> bytes:
    out = bytearray()
    while len(out) < size:
        out += _WORDS[int(rng.random() * len(_WORDS))]
        out += b". " if rng.random() < 0.1 else b" "
    return bytes(out[:size])


def _record(size: int, rng: random.Random) -> bytes:
    out = bytearray()
    row = 0
    while len(out) < size:
        out += b"id=%06d|region=use%d|status=%s|score=0.%03d|bytes=%d\n" % (
            row,
            rng.getrandbits(2),
            (b"ok", b"ok", b"ok", b"retry")[rng.getrandbits(2)],
            rng.getrandbits(10) % 997,
            rng.getrandbits(14),
        )
        row += 1 + rng.getrandbits(1)
    return bytes(out[:size])


def _float(size: int, rng: random.Random) -> bytes:
    out = bytearray()
    value = 100.0
    while len(out) < size:
        value += rng.random() - 0.5
        out += struct.pack("<d", round(value, 3))
    return bytes(out[:size])


def _incompressible(size: int, rng: random.Random) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(size))


def _equal(size: int, rng: random.Random) -> bytes:
    return b"\x41" * size


_GENERATORS = (
    ("text", _text),
    ("record", _record),
    ("float", _float),
    ("incompressible", _incompressible),
    ("equal", _equal),
)


def _buffer(index: int, size: int) -> bytes:
    return _GENERATORS[index][1](size, random.Random(1000 * index + 17))


def _dictionary() -> bytes:
    rng = random.Random(4242)
    return _record(4096, rng) + _text(4096, rng)


def _counters(counters: StageCounters) -> list:
    return list(dataclasses.astuple(counters))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def codec_case(label: str, corpus_index: int, size: int) -> dict:
    __, name, level, with_dict = next(c for c in CONFIGS if c[0] == label)
    data = _buffer(corpus_index, size)
    dictionary = _dictionary() if with_dict else None
    codec = get_codec(name)
    packed = codec.compress(data, level, dictionary=dictionary)
    back = codec.decompress(packed.data, dictionary=dictionary)
    assert back.data == data
    return {
        "stream": _sha(packed.data),
        "compress": _counters(packed.counters),
        "decompress": _counters(back.counters),
    }


def finder_case(label: str, corpus_index: int) -> dict:
    params = dict(FINDER_CASES)[label]
    # the history prefix shares content with the body, so matches reach it
    body = _buffer(corpus_index, _FINDER_BODY)
    data = body[-_HISTORY:] + body
    counters = StageCounters()
    tokens = finder_for_strategy(params.strategy).parse(
        data, _HISTORY, params, counters
    )
    covered = sum(t.literal_length + t.match_length for t in tokens)
    assert covered == _FINDER_BODY
    triples = [(t.literal_length, t.match_length, t.offset) for t in tokens]
    return {"tokens": _sha(repr(triples).encode()), "counters": _counters(counters)}


def _codec_ids():
    return [
        f"{label}/{_GENERATORS[index][0]}/{size}"
        for label, *__ in CONFIGS
        for index in range(len(_GENERATORS))
        for size in SIZES
    ]


def _finder_ids():
    return [
        f"parse:{label}/{_GENERATORS[index][0]}"
        for label, __ in FINDER_CASES
        for index in range(len(_GENERATORS))
    ]


def _run(case_id: str) -> dict:
    head, corpus, *rest = case_id.split("/")
    index = [name for name, __ in _GENERATORS].index(corpus)
    if head.startswith("parse:"):
        return finder_case(head[len("parse:"):], index)
    return codec_case(head, index, int(rest[0]))


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_exactly_the_declared_cases(pins):
    assert sorted(pins) == sorted(_codec_ids() + _finder_ids())


@pytest.mark.parametrize("case_id", _codec_ids() + _finder_ids())
def test_kernel_output_matches_pin(case_id, pins):
    assert _run(case_id) == pins[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    lines = [
        f"{json.dumps(case_id, sort_keys=True)}:"
        + json.dumps(_run(case_id), sort_keys=True, separators=(",", ":"))
        for case_id in sorted(_codec_ids() + _finder_ids())
    ]
    PINS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")

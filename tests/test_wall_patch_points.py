"""The wall benchmark's tracer finds its targets by name.

``benchmarks/wall/trace.py`` resolves every ``(owner, attribute)`` pair in
its ``TARGETS`` with ``vars(owner)[attr]`` and replaces it for one traced
repetition. A kernel refactor that renames one, or that binds one at
definition time instead of looking it up at call time, would break the
benchmark (or silently empty a layer's row) without failing tier-1. These
tests move that failure here.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.codecs import get_codec
from repro.codecs.zstd.dictionary import dictionary_id
from repro.services.kvstore import KVStore, SimStorage

WALL_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "wall"

#: the codec-kernel patch points, owner ``module`` or ``module:Class``
KERNEL_PATCH_POINTS = (
    ("repro.codecs.zstd.codec", "xxh32"),
    ("repro.codecs.zstd.dictionary", "xxh32"),
    ("repro.codecs.lz4.codec", "xxh32"),
    ("repro.services.kvstore.bloom", "xxh32"),
    ("repro.codecs.deflate.codec", "adler32"),
    ("repro.codecs.deflate.codec", "crc32"),
    ("repro.services.kvstore.wal", "crc32"),
    ("repro.services.kvstore.manifest", "crc32"),
    ("repro.codecs.matchfinders.single_hash:SingleHashMatchFinder", "parse"),
    ("repro.codecs.matchfinders.hash_chain:HashChainMatchFinder", "parse"),
    ("repro.codecs.matchfinders.optimal:OptimalMatchFinder", "parse"),
    ("repro.codecs.zstd.blocks", "encode_block"),
    ("repro.codecs.zstd.blocks", "decode_block"),
    ("repro.codecs.deflate.deflate", "encode_stream"),
    ("repro.codecs.deflate.inflate", "decode_stream"),
)


def _resolve_owner(path: str):
    module_name, __, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _tracer_targets():
    """``TARGETS`` of the benchmark's tracer, loaded by path (its sibling
    ``spec`` module has to be importable while it loads)."""
    sys.path.insert(0, str(WALL_DIR))
    try:
        module_spec = importlib.util.spec_from_file_location(
            "wall_trace_under_test", WALL_DIR / "trace.py"
        )
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(WALL_DIR))
        sys.modules.pop("spec", None)
    return module.TARGETS


@pytest.mark.parametrize("owner_path,attr", KERNEL_PATCH_POINTS)
def test_kernel_patch_point_resolves_by_name(owner_path, attr):
    assert callable(vars(_resolve_owner(owner_path))[attr])


def test_every_tracer_target_resolves_and_lists_the_kernel_points():
    targets = {(owner_path, attr) for owner_path, attr, __, __ in _tracer_targets()}
    assert set(KERNEL_PATCH_POINTS) <= targets
    for owner_path, attr in sorted(targets):
        raw = vars(_resolve_owner(owner_path))[attr]
        assert callable(getattr(raw, "__func__", raw)), (owner_path, attr)


def test_kernel_patch_points_are_looked_up_at_call_time(monkeypatch):
    """Replace every kernel patch point with a counting wrapper, drive each
    codec family once, and require every wrapper to have been hit."""
    hits = {point: 0 for point in KERNEL_PATCH_POINTS}

    def counting(point, original):
        def wrapper(*args, **kwargs):
            hits[point] += 1
            return original(*args, **kwargs)

        return wrapper

    for point in KERNEL_PATCH_POINTS:
        owner = _resolve_owner(point[0])
        monkeypatch.setattr(owner, point[1], counting(point, vars(owner)[point[1]]))

    data = b"the quick brown fox jumps over the lazy dog. " * 40
    dictionary = data[:512]
    dictionary_id.cache_clear()  # the id is hashed on a miss only
    zstd = get_codec("zstd")
    for level in (1, 3, 19):  # fast, greedy and optimal parsers
        packed = zstd.compress(data, level, dictionary=dictionary)
        assert zstd.decompress(packed.data, dictionary=dictionary).data == data
    for name in ("lz4", "zlib", "gzip"):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data).data).data == data

    storage = SimStorage(seed=3)
    store = KVStore(storage=storage, memtable_bytes=1 << 12)
    for index in range(64):
        store.put(b"key-%04d" % index, data[: 100 + index])
    store.flush()
    reopened = KVStore.open(storage, memtable_bytes=1 << 12)
    assert reopened.get(b"key-0007") == data[:107]

    assert [point for point, count in hits.items() if not count] == []

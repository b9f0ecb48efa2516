"""Layer tracing from outside: timing wrappers on a declared list of the
program's callables, installed for one traced repetition and restored
afterwards.

Nothing under ``src/`` knows about this module. A span is recorded at
each call into a wrapped callable: ``name, layer, start, end, parent,
bytes``. Spans stay in memory; :meth:`Tracer.write` dumps them as JSON
lines when the repetition ends. A layer's *self time* is its spans'
duration minus the duration of their direct children, so every second
of the root span lands in exactly one layer (or in the root's own
``bench`` layer, which is the unattributed remainder).

Only callables hit at most ~50k times per run are wrapped; the busiest,
``CompressionGateway.serve_batch``, is hit ~35k times on
``cluster_control``, whose six hot callables add up to ~180k spans.
Per-symbol and per-byte helpers (``BitWriter.write``, ``match_length``,
``Histogram.observe``, ``TimeSeriesRecorder.advance``) would cost more
to trace than they cost to run, so their time stays in the self time of
the wrapped caller above them.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Union

from spec import LAYERS

#: the layer every root span belongs to: time no wrapped callable covers
ROOT_LAYER = "bench"

_CODEC_LAYERS = {
    "lz4": "codecs.lz4",
    "zstd": "codecs.zstd",
    "zlib": "codecs.deflate",
    "gzip": "codecs.deflate",
}


def _codec_layer(args: tuple) -> str:
    """``Compressor.compress/decompress`` is one base-class method for
    every codec; the instance's registry name picks the layer."""
    name = args[0].name
    if name.startswith("graph:"):
        return "graphs"
    return _CODEC_LAYERS[name]


def _len_of(index: int) -> Callable[[tuple], int]:
    """Bytes of the ``index``-th positional argument (0 when the caller
    passed it by keyword)."""

    def length(args: tuple) -> int:
        return len(args[index]) if len(args) > index else 0

    return length


_len_arg0, _len_arg1, _len_arg2 = _len_of(0), _len_of(1), _len_of(2)


Layer = Union[str, Callable[[tuple], str]]
#: (owner "module" or "module:Class", attribute, layer, bytes-of-args or None)
Target = Tuple[str, str, Layer, Optional[Callable[[tuple], int]]]

_SLOS_HOOKS = (
    # the bodies of these three are Counter.inc / Histogram.observe calls
    # into a window registry and nothing else, so their time is obs time
    ("repro.serving.gateway", "record_window_served"),
    ("repro.serving.gateway", "record_window_verdict"),
    ("repro.serving.simulate", "record_window_completion"),
    ("repro.cluster.simulate", "record_window_completion"),
)

TARGETS: Tuple[Target, ...] = (
    # -- codecs ------------------------------------------------------------
    ("repro.codecs.base:Compressor", "compress", _codec_layer, _len_arg1),
    ("repro.codecs.base:Compressor", "decompress", _codec_layer, _len_arg1),
    ("repro.codecs.matchfinders.single_hash:SingleHashMatchFinder", "parse",
     "codecs.matchfinders", None),
    ("repro.codecs.matchfinders.hash_chain:HashChainMatchFinder", "parse",
     "codecs.matchfinders", None),
    ("repro.codecs.matchfinders.optimal:OptimalMatchFinder", "parse",
     "codecs.matchfinders", None),
    # the entropy *stage*: token -> bitstream and back (Huffman/FSE tables,
    # bit I/O, and on decode the sequence execution that consumes them)
    ("repro.codecs.zstd.blocks", "encode_block", "codecs.entropy", None),
    ("repro.codecs.zstd.blocks", "decode_block", "codecs.entropy", _len_arg0),
    ("repro.codecs.deflate.deflate", "encode_stream", "codecs.entropy", None),
    ("repro.codecs.deflate.inflate", "decode_stream", "codecs.entropy", None),
    ("repro.codecs.zstd.codec", "xxh32", "codecs.checksum", _len_arg0),
    ("repro.codecs.zstd.dictionary", "xxh32", "codecs.checksum", _len_arg0),
    ("repro.codecs.lz4.codec", "xxh32", "codecs.checksum", _len_arg0),
    ("repro.codecs.deflate.codec", "adler32", "codecs.checksum", _len_arg0),
    ("repro.codecs.deflate.codec", "crc32", "codecs.checksum", _len_arg0),
    ("repro.services.kvstore.wal", "crc32", "codecs.checksum", _len_arg0),
    ("repro.services.kvstore.manifest", "crc32", "codecs.checksum", _len_arg0),
    ("repro.services.kvstore.bloom", "xxh32", "codecs.checksum", _len_arg0),
    # -- parallel engine ---------------------------------------------------
    ("repro.parallel.engine", "compress_chunked", "parallel", _len_arg1),
    ("repro.parallel.engine", "decompress_chunked", "parallel", _len_arg1),
    ("repro.parallel.executors:SerialExecutor", "map", "parallel", None),
    ("repro.parallel.executors:ProcessPoolExecutor", "map", "parallel", None),
    # -- CompOpt (the ladder build is CompEngine + CompOpt work) -----------
    ("repro.serving.simulate", "build_ladder", "core", None),
    ("repro.core.engine:CompEngine", "measure", "core", None),
    ("repro.core.optimizer:CompOpt", "optimize", "core", None),
    ("repro.perfmodel.machine:MachineModel", "compress_seconds",
     "perfmodel", None),
    ("repro.perfmodel.machine:MachineModel", "decompress_seconds",
     "perfmodel", None),
    # -- corpus generators, at the import site the simulators call ---------
    ("repro.serving.workload", "generate_cache_items", "corpus", None),
    ("repro.serving.workload", "generate_logs", "corpus", None),
    ("repro.serving.workload", "generate_records", "corpus", None),
    ("repro.serving.workload", "generate_ads_request", "corpus", None),
    # -- serving plane -----------------------------------------------------
    ("repro.serving.workload:WorkloadGenerator", "generate",
     "serving.workload", None),
    ("repro.serving.gateway:CompressionGateway", "submit",
     "serving.gateway", None),
    ("repro.serving.gateway:CompressionGateway", "serve_batch",
     "serving.gateway", None),
    ("repro.serving.simulate", "run_simulation", "serving.simulate", None),
    ("repro.serving.simulate", "format_scorecard", "serving.simulate", None),
    # -- cluster -----------------------------------------------------------
    ("repro.cluster.simulate", "run_cluster_simulation", "cluster", None),
    ("repro.cluster.simulate", "format_cluster_scorecard", "cluster", None),
    ("repro.cluster.ring:HashRing", "add_node", "cluster", None),
    ("repro.cluster.ring:HashRing", "remove_node", "cluster", None),
    ("repro.cluster.autoscaler:Autoscaler", "observe", "cluster", None),
    ("repro.cluster.rebalance:Rebalancer", "observe", "cluster", None),
    # -- obs: window recording, window merge, SLO evaluation ---------------
    *((module, attr, "obs", None) for module, attr in _SLOS_HOOKS),
    ("repro.obs.slo:SLOEvaluator", "on_window", "obs", None),
    ("repro.obs.timeseries:TimeSeriesRecorder", "flush", "obs", None),
    ("repro.cluster.simulate", "merge_windows", "obs", None),
    ("repro.cluster.simulate", "merge_shard_windows", "obs", None),
    # -- kvstore -----------------------------------------------------------
    ("repro.services.kvstore.db:KVStore", "__init__",
     "services.kvstore.db", None),
    ("repro.services.kvstore.db:KVStore", "put", "services.kvstore.db",
     _len_arg2),
    ("repro.services.kvstore.db:KVStore", "delete", "services.kvstore.db",
     None),
    ("repro.services.kvstore.db:KVStore", "get", "services.kvstore.db", None),
    ("repro.services.kvstore.db:KVStore", "flush", "services.kvstore.db",
     None),
    # private, but the only boundary that separates compaction from flush
    ("repro.services.kvstore.db:KVStore", "_compact_level",
     "services.kvstore.db", None),
    ("repro.services.kvstore.wal:WriteAheadLog", "append",
     "services.kvstore.wal", None),
    ("repro.services.kvstore.wal:WriteAheadLog", "replay",
     "services.kvstore.wal", None),
    ("repro.services.kvstore.wal:WriteAheadLog", "prune",
     "services.kvstore.wal", None),
    ("repro.services.kvstore.sst:SSTable", "build", "services.kvstore.sst",
     None),
    ("repro.services.kvstore.sst:SSTable", "get", "services.kvstore.sst",
     None),
    ("repro.services.kvstore.sst:SSTable", "to_bytes",
     "services.kvstore.sst", None),
    ("repro.services.kvstore.sst:SSTable", "from_bytes",
     "services.kvstore.sst", None),
    ("repro.services.kvstore.storage:SimStorage", "append",
     "services.kvstore.storage", _len_arg2),
    ("repro.services.kvstore.storage:SimStorage", "sync",
     "services.kvstore.storage", None),
    ("repro.services.kvstore.storage:SimStorage", "write_file",
     "services.kvstore.storage", _len_arg2),
    ("repro.services.kvstore.storage:SimStorage", "read",
     "services.kvstore.storage", None),
    ("repro.services.kvstore.storage:SimStorage", "delete",
     "services.kvstore.storage", None),
)

# span record layout (a list, mutated in place when the call returns)
NAME, LAYER, START, END, PARENT, BYTES = range(6)


def _resolve_owner(path: str):
    module_name, __, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: index of the innermost open span (-1: none), shared by wrappers
        self._current: List[int] = [-1]
        #: (owner, attribute, original raw attribute, installed wrapper)
        self._patched: List[Tuple[object, str, object, object]] = []

    # -- install / restore ---------------------------------------------------

    def install(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        for owner_path, attr, layer, bytes_of in targets:
            owner = _resolve_owner(owner_path)
            raw = vars(owner)[attr]
            span_name = f"{owner_path.split(':')[-1].split('.')[-1]}.{attr}"
            if isinstance(raw, classmethod):
                wrapper = classmethod(
                    self._wrap(raw.__func__, span_name, layer, bytes_of)
                )
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(
                    self._wrap(raw.__func__, span_name, layer, bytes_of)
                )
            else:
                wrapper = self._wrap(raw, span_name, layer, bytes_of)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, raw, wrapper))

    def restore(self) -> None:
        """Put every original back (newest patch first)."""
        while self._patched:
            owner, attr, raw, __ = self._patched.pop()
            setattr(owner, attr, raw)

    def patched(self) -> List[Tuple[object, str, object, object]]:
        return list(self._patched)

    def _wrap(self, fn, span_name: str, layer: Layer, bytes_of):
        spans = self.spans
        current = self._current
        clock = perf_counter
        dynamic = callable(layer)

        # this body is what tracing costs per span: no stack, no lookups
        # beyond the closure, one list per call
        def traced(*args, **kwargs):
            parent = current[0]
            current[0] = len(spans)
            record = [
                span_name,
                layer(args) if dynamic else layer,
                clock(),
                0.0,
                parent,
                bytes_of(args) if bytes_of is not None else 0,
            ]
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                current[0] = parent

        traced.__wrapped__ = fn
        return traced

    def call_root(self, name: str, fn, *args):
        """Run ``fn(*args)`` under a span the benchmark itself opens; the
        part of it no wrapped callable covers is the unattributed time."""
        return self._wrap(fn, name, ROOT_LAYER, None)(*args)

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON object per span; ``id`` is the line index."""
        with open(path, "w") as handle:
            for index, record in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": record[NAME],
                            "layer": record[LAYER],
                            "start": record[START],
                            "end": record[END],
                            "parent": record[PARENT],
                            "bytes": record[BYTES],
                        },
                        sort_keys=True,
                    )
                )
                handle.write("\n")


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus direct children's durations."""
    own = [record[END] - record[START] for record in spans]
    for record in spans:
        parent = record[PARENT]
        if parent >= 0:
            own[parent] -= record[END] - record[START]
    return own


def layer_summary(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": ..., "calls": ...}}`` over every span, with
    every declared layer present (zero when the workload never reached it)."""
    totals = {
        layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS + (ROOT_LAYER,)
    }
    for record, own in zip(spans, self_times(spans)):
        entry = totals[record[LAYER]]
        entry["self_s"] += own
        entry["calls"] += 1
    return totals


def span_seconds(spans: List[list], name: str) -> Tuple[float, int]:
    """Total duration and count of the spans called ``name``."""
    total = 0.0
    count = 0
    for record in spans:
        if record[NAME] == name:
            total += record[END] - record[START]
            count += 1
    return total, count

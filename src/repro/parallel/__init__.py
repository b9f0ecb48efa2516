"""Parallel chunked-compression engine and sweep fan-out.

Production deployments hide compression latency by splitting payloads and
compressing shards concurrently (pigz chunking, zstd frame splitting);
this package reproduces that architecture on top of the from-scratch
codecs: a chunked engine whose output is a standard multi-frame stream any
serial decoder accepts (:mod:`repro.parallel.engine`), pluggable
serial/pool executors (:mod:`repro.parallel.executors`), and
:func:`run_cells`, which fans independent measurement cells across the pool
(:mod:`repro.parallel.sweep`).
"""

from repro.parallel.chunker import (
    DEFAULT_CHUNK_SIZE,
    MIN_CHUNK_SIZE,
    chunk_count,
    plan_chunks,
)
from repro.parallel.engine import (
    ChunkReport,
    ChunkedCompressResult,
    compress_chunked,
    decompress_chunked,
)
from repro.parallel.executors import (
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
    resolve_jobs,
)
from repro.parallel.sweep import run_cells

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "MIN_CHUNK_SIZE",
    "chunk_count",
    "plan_chunks",
    "ChunkReport",
    "ChunkedCompressResult",
    "compress_chunked",
    "decompress_chunked",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "make_executor",
    "resolve_jobs",
    "run_cells",
]

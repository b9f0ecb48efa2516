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

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.parallel.chunker": (
            "DEFAULT_CHUNK_SIZE",
            "MIN_CHUNK_SIZE",
            "chunk_count",
            "plan_chunks",
        ),
        "repro.parallel.engine": (
            "ChunkReport",
            "ChunkedCompressResult",
            "compress_chunked",
            "decompress_chunked",
        ),
        "repro.parallel.executors": (
            "ProcessPoolExecutor",
            "SerialExecutor",
            "make_executor",
            "resolve_jobs",
        ),
        "repro.parallel.sweep": ("run_cells",),
    },
)

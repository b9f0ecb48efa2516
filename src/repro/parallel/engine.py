"""Parallel chunked compression: independent frames over a worker pool.

The engine splits an input into chunks (:mod:`repro.parallel.chunker`),
compresses each chunk as one complete frame on an executor
(:mod:`repro.parallel.executors`), and concatenates the frames. Because
every codec's decoder accepts concatenated frames (the multi-frame
contract in :mod:`repro.codecs`), the output is a *standard* stream: a
plain serial ``codec.decompress`` of the chunked stream yields exactly the
original bytes, with no side-channel chunk directory.

Determinism: the chunk plan depends only on (input size, chunk size) and
frames are reassembled in chunk order, so ``jobs=1`` and ``jobs=N``
produce byte-identical output and identical merged
:class:`~repro.codecs.base.StageCounters` -- the property the equivalence
tests pin and the perfmodel's cycle attribution requires.

Telemetry: workers cannot write to the parent's metrics registry (they
run in forked/spawned children), so each task ships its measured duration
back with its frame and the parent stitches per-chunk spans and counters
into its own registry (:func:`repro.obs.spans.record_external_span`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple, Union

from repro.codecs.base import (
    CompressResult,
    CorruptDataError,
    Compressor,
    DecompressResult,
    StageCounters,
    get_codec,
)
from repro.obs.state import OBS_STATE
from repro.parallel.chunker import DEFAULT_CHUNK_SIZE, plan_chunks
from repro.parallel.executors import SerialExecutor, make_executor

CodecSpec = Union[str, Compressor]


@dataclass(frozen=True)
class ChunkReport:
    """What one worker shipped back besides its frame bytes."""

    index: int
    raw_bytes: int
    frame_bytes: int
    seconds: float


@dataclass
class ChunkedCompressResult(CompressResult):
    """A :class:`CompressResult` plus the chunk-level evidence."""

    chunk_size: int = DEFAULT_CHUNK_SIZE
    reports: Tuple[ChunkReport, ...] = ()

    @property
    def chunk_count(self) -> int:
        return len(self.reports)


def _resolve_codec(codec: CodecSpec) -> Compressor:
    return get_codec(codec) if isinstance(codec, str) else codec


# -- worker tasks (module level: must be picklable for spawn pools) --------


def _compress_chunk(task) -> Tuple[int, bytes, StageCounters, float]:
    """Compress one chunk into one frame; runs in a worker or in-process."""
    index, codec_name, level, dictionary, chunk = task
    codec = get_codec(codec_name)
    # repro: lint-ok[D001] -- per-chunk wall duration is shipped back as
    # telemetry for span stitching; frame bytes are seed-deterministic
    start = perf_counter()
    result = codec.compress(chunk, level, dictionary=dictionary)
    return index, result.data, result.counters, perf_counter() - start  # repro: lint-ok[D001] -- telemetry-only wall measurement


def _decompress_frame(task) -> Tuple[int, bytes, StageCounters, float]:
    """Decompress one frame back to its chunk."""
    index, codec_name, dictionary, frame = task
    codec = get_codec(codec_name)
    # repro: lint-ok[D001] -- per-chunk wall duration is shipped back as
    # telemetry for span stitching; chunk bytes are seed-deterministic
    start = perf_counter()
    result = codec.decompress(frame, dictionary=dictionary)
    return index, result.data, result.counters, perf_counter() - start  # repro: lint-ok[D001] -- telemetry-only wall measurement


def _stitch_chunk_telemetry(
    codec_name: str,
    direction: str,
    executor_kind: str,
    outputs: Sequence[Tuple[int, bytes, StageCounters, float]],
) -> None:
    from repro.obs.instrument import record_parallel_chunk
    from repro.obs.spans import record_external_span

    for index, payload, counters, seconds in outputs:
        # repro: lint-ok[O001] -- caller-guarded: both call sites sit
        # inside `if obs_on:` blocks (compress_chunked/decompress_chunked)
        record_external_span(
            f"parallel.chunk.{direction}",
            seconds,
            codec=codec_name,
            index=index,
            bytes_in=counters.bytes_in,
        )
        # repro: lint-ok[O001] -- caller-guarded (see record_external_span above)
        record_parallel_chunk(
            codec_name, direction, seconds, counters.bytes_in, executor_kind
        )


def compress_chunked(
    codec: CodecSpec,
    data: bytes,
    level: Optional[int] = None,
    dictionary: Optional[bytes] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    jobs: Optional[int] = 1,
    executor=None,
) -> ChunkedCompressResult:
    """Compress ``data`` as concatenated independent frames.

    ``jobs`` picks the executor (1 = in-process, N = pool, 0/None = all
    cores); pass ``executor`` to reuse a long-lived pool across calls.
    Every chunk sees the same ``dictionary`` (each frame is independent).
    """
    resolved = _resolve_codec(codec)
    if level is None:
        level = resolved.default_level
    data = bytes(data)
    spans = plan_chunks(len(data), chunk_size)
    tasks = [
        (index, resolved.name, level, dictionary, data[start:stop])
        for index, (start, stop) in enumerate(spans)
    ]

    own_executor = executor is None
    if own_executor:
        executor = make_executor(jobs) if len(tasks) > 1 else SerialExecutor()
    obs_on = OBS_STATE.enabled
    # repro: lint-ok[D001] -- assembly-span wall timing, telemetry only
    started = perf_counter() if obs_on else 0.0
    try:
        outputs = executor.map(_compress_chunk, tasks)
    finally:
        if own_executor:
            executor.close()
    outputs.sort(key=lambda item: item[0])

    merged = StageCounters()
    frames: List[bytes] = []
    reports: List[ChunkReport] = []
    for index, frame, counters, seconds in outputs:
        merged.merge(counters)
        frames.append(frame)
        reports.append(
            ChunkReport(
                index=index,
                raw_bytes=counters.bytes_in,
                frame_bytes=len(frame),
                seconds=seconds,
            )
        )
    payload = b"".join(frames)

    if obs_on:
        from repro.obs.spans import record_external_span, span

        with span(
            "parallel.compress",
            codec=resolved.name,
            level=level,
            jobs=getattr(executor, "jobs", 1),
            chunks=len(tasks),
            chunk_size=chunk_size,
        ):
            _stitch_chunk_telemetry(
                resolved.name, "compress", getattr(executor, "kind", "serial"), outputs
            )
            record_external_span(
                # repro: lint-ok[D001] -- assembly-span wall timing, telemetry only
                "parallel.assemble", perf_counter() - started, codec=resolved.name
            )

    return ChunkedCompressResult(
        data=payload,
        counters=merged,
        codec=resolved.name,
        level=level,
        chunk_size=chunk_size,
        reports=tuple(reports),
    )


# -- parallel decode ---------------------------------------------------------


def decompress_chunked(
    codec: CodecSpec,
    payload: bytes,
    dictionary: Optional[bytes] = None,
    jobs: Optional[int] = 1,
    max_output_bytes: Optional[int] = None,
) -> DecompressResult:
    """Decompress a (possibly multi-frame) stream, in parallel when possible.

    Output is always identical to ``codec.decompress(payload)``. Frames
    are split where the codec can find their boundaries without decoding
    (:meth:`Compressor.frame_spans`: zstd, lz4); otherwise --
    deflate-family streams, single-frame payloads, or when
    ``max_output_bytes`` needs sequential budget accounting -- the serial
    decoder runs directly.
    """
    resolved = _resolve_codec(codec)
    payload = bytes(payload)
    spans = None
    if max_output_bytes is None:
        try:
            spans = resolved.frame_spans(payload)
        except CorruptDataError:
            spans = None  # malformed: let the serial decoder raise properly
    if spans is None or len(spans) <= 1:
        return resolved.decompress(
            payload, dictionary=dictionary, max_output_bytes=max_output_bytes
        )

    tasks = [
        (index, resolved.name, dictionary, payload[start:stop])
        for index, (start, stop) in enumerate(spans)
    ]
    with make_executor(jobs) as executor:
        outputs = executor.map(_decompress_frame, tasks)
    outputs.sort(key=lambda item: item[0])

    merged = StageCounters()
    chunks: List[bytes] = []
    for __, chunk, counters, __seconds in outputs:
        merged.merge(counters)
        chunks.append(chunk)

    if OBS_STATE.enabled:
        from repro.obs.spans import span

        with span(
            "parallel.decompress",
            codec=resolved.name,
            jobs=getattr(executor, "jobs", 1),
            chunks=len(tasks),
        ):
            _stitch_chunk_telemetry(
                resolved.name,
                "decompress",
                getattr(executor, "kind", "serial"),
                outputs,
            )

    return DecompressResult(
        data=b"".join(chunks), counters=merged, codec=resolved.name
    )

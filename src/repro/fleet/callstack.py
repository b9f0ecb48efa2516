"""Synthetic call-stack frames and their classification.

The fleet methodology (Section III-A) is: sample application call stacks,
filter the stacks for compression APIs, aggregate cycles by the matched
frames. This module defines the frame vocabulary the synthetic profiler
emits and the classifier the aggregation uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: compression API frames by (algorithm, direction)
_API_FRAMES = {
    ("zstd", "compress"): "ZSTD_compress",
    ("zstd", "decompress"): "ZSTD_decompress",
    ("lz4", "compress"): "LZ4_compress_default",
    ("lz4", "decompress"): "LZ4_decompress_safe",
    ("zlib", "compress"): "deflate",
    ("zlib", "decompress"): "inflate",
}

_STAGE_FRAMES = {
    "match_finding": "ZSTD_compressBlock_internal",
    "entropy": "ZSTD_entropyCompressSeqStore",
}

_FRAME_TO_CLASS = {frame: key for key, frame in _API_FRAMES.items()}


@dataclass(frozen=True)
class CallStackSample:
    """One (aggregated) profiler observation.

    ``weight`` counts how many cycle samples share this exact leaf; the
    synthetic profiler aggregates identical leaves instead of materializing
    hundreds of millions of rows.
    """

    service: str
    category: str
    frames: Tuple[str, ...]
    weight: int = 1
    #: metadata joined from service configuration (as production tooling does)
    level: Optional[int] = None
    stage: Optional[str] = None
    block_size: Optional[int] = None


def api_frame(algorithm: str, direction: str) -> str:
    """The API frame name for (algorithm, direction)."""
    return _API_FRAMES[(algorithm, direction)]


def stage_frame(stage: str) -> str:
    return _STAGE_FRAMES[stage]


def build_stack(
    service: str,
    algorithm: Optional[str] = None,
    direction: Optional[str] = None,
    stage: Optional[str] = None,
) -> Tuple[str, ...]:
    """Assemble a plausible call stack for one sample."""
    frames = ["__libc_start_main", f"svc::{service}::main", "rpc::dispatch"]
    if algorithm is None:
        frames.append("app::handle_request")
    else:
        frames.append("folly::io::Codec::compress" if direction == "compress"
                      else "folly::io::Codec::uncompress")
        frames.append(api_frame(algorithm, direction))
        if stage is not None:
            frames.append(stage_frame(stage))
    return tuple(frames)


def parse_frame(frame: str) -> Optional[Tuple[str, str]]:
    """(algorithm, direction) for an API frame, None for everything else."""
    return _FRAME_TO_CLASS.get(frame)


def classify_stack(frames: Tuple[str, ...]) -> Optional[Tuple[str, str]]:
    """Scan a stack for the innermost compression API frame."""
    for frame in reversed(frames):
        parsed = parse_frame(frame)
        if parsed:
            return parsed
    return None

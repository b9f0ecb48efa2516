"""LZ4 compressor: level tables, framing, and the public codec class."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codecs.base import (
    Compressor,
    CorruptDataError,
    StageCounters,
    register_codec,
)
from repro.codecs.checksum import xxh32
from repro.codecs.lz4 import block as lz4block
from repro.codecs.matchfinders import finder_for_strategy
from repro.codecs.matchfinders.base import MatchFinderParams

_MAGIC = b"RLZ4"
_HEADER_SIZE = 12  # magic + 8-byte content size
_MAX_BLOCK = 1 << 22  # 4 MiB, matching the largest real LZ4 frame block size
_UNCOMPRESSED_FLAG = 0x80000000


def _content_size(payload: bytes, pos: int) -> int:
    """Validate the frame header at ``pos``; returns its content size."""
    if payload[pos : pos + 4] != _MAGIC:
        raise CorruptDataError("bad LZ4 frame magic")
    if len(payload) - pos < _HEADER_SIZE:
        raise CorruptDataError("truncated LZ4 frame header")
    return int.from_bytes(payload[pos + 4 : pos + _HEADER_SIZE], "little")


#: Level table. Levels 1-2 are the fast single-hash path (LZ4 default and a
#: denser hash table); 3-12 are HC-style hash-chain searches of increasing
#: depth, with lazy evaluation from level 6 up.
_LEVEL_PARAMS: Dict[int, MatchFinderParams] = {}
for _level in range(1, 13):
    if _level <= 2:
        _LEVEL_PARAMS[_level] = MatchFinderParams(
            window_log=16,
            hash_log=12 if _level == 1 else 15,
            min_match=lz4block.MIN_MATCH,
            max_offset=lz4block.MAX_OFFSET,
            strategy="fast",
            acceleration=1,
        )
    else:
        _LEVEL_PARAMS[_level] = MatchFinderParams(
            window_log=16,
            hash_log=15,
            search_depth=min(96, 1 << (_level - 2)),
            min_match=lz4block.MIN_MATCH,
            max_offset=lz4block.MAX_OFFSET,
            target_length=64 if _level < 10 else 1 << 12,
            lazy_steps=0 if _level < 6 else (1 if _level < 10 else 2),
            strategy="greedy" if _level < 6 else ("lazy" if _level < 10 else "lazy2"),
        )


class LZ4Compressor(Compressor):
    """LZ4-style codec with levels 1..12 (1-2 fast, 3-12 HC-style)."""

    name = "lz4"
    min_level = 1
    max_level = 12
    default_level = 1

    def params_for_level(self, level: int) -> MatchFinderParams:
        """Match-finder parameters the given level resolves to."""
        return _LEVEL_PARAMS[level]

    def _compress(
        self,
        data: bytes,
        level: int,
        dictionary: Optional[bytes],
        counters: StageCounters,
    ) -> bytes:
        params = _LEVEL_PARAMS[level]
        finder = finder_for_strategy(params.strategy)
        out = bytearray(_MAGIC)
        out.extend(len(data).to_bytes(8, "little"))
        for block_start in range(0, len(data), _MAX_BLOCK):
            chunk = data[block_start : block_start + _MAX_BLOCK]
            sequences = finder.parse(chunk, 0, params, counters)
            payload = lz4block.encode_block(chunk, 0, sequences, counters)
            if len(payload) >= len(chunk):
                # Incompressible block: store raw, as the real frame does.
                out.extend((len(chunk) | _UNCOMPRESSED_FLAG).to_bytes(4, "little"))
                out.extend(chunk)
            else:
                out.extend(len(payload).to_bytes(4, "little"))
                out.extend(payload)
        out.extend((0).to_bytes(4, "little"))  # end mark
        out.extend(xxh32(data).to_bytes(4, "little"))
        return bytes(out)

    def _decompress(
        self,
        payload: bytes,
        dictionary: Optional[bytes],
        counters: StageCounters,
    ) -> bytes:
        if not payload:
            raise CorruptDataError("bad LZ4 frame magic")
        out = bytearray()
        pos = 0
        # Concatenated frames decode to concatenated contents, matching the
        # real LZ4 frame format (and the parallel chunked engine's output).
        while pos < len(payload):
            pos = self._decode_frame(payload, pos, counters, out)
        return bytes(out)

    def frame_spans(self, payload: bytes) -> List[Tuple[int, int]]:
        spans: List[Tuple[int, int]] = []
        pos = 0
        while pos < len(payload):
            start = pos
            _content_size(payload, pos)
            pos += _HEADER_SIZE
            while True:
                if pos + 4 > len(payload):
                    raise CorruptDataError("truncated LZ4 frame")
                block_size = int.from_bytes(payload[pos : pos + 4], "little")
                pos += 4
                if block_size == 0:  # end mark
                    break
                pos += block_size & ~_UNCOMPRESSED_FLAG
            pos += 4  # content checksum
            if pos > len(payload):
                raise CorruptDataError("truncated LZ4 frame")
            spans.append((start, pos))
        return spans

    def _decode_frame(
        self, payload: bytes, pos: int, counters: StageCounters, out: bytearray
    ) -> int:
        """Decode one frame at ``pos`` into ``out``; returns the end offset."""
        content_size = _content_size(payload, pos)
        frame_start = len(out)
        self._check_output_budget(frame_start + content_size)
        pos += _HEADER_SIZE
        while True:
            self._check_output_budget(len(out))
            if pos + 4 > len(payload):
                raise CorruptDataError("truncated LZ4 frame")
            block_size = int.from_bytes(payload[pos : pos + 4], "little")
            pos += 4
            if block_size == 0:
                break
            raw = bool(block_size & _UNCOMPRESSED_FLAG)
            block_size &= ~_UNCOMPRESSED_FLAG
            if pos + block_size > len(payload):
                raise CorruptDataError("block exceeds LZ4 frame")
            body = payload[pos : pos + block_size]
            pos += block_size
            if raw:
                self._check_output_budget(len(out) + len(body))
                out.extend(body)
                counters.literal_bytes_copied += len(body)
            else:
                out.extend(lz4block.decode_block(body, counters))
        if pos + 4 > len(payload):
            raise CorruptDataError("missing LZ4 content checksum")
        stored = int.from_bytes(payload[pos : pos + 4], "little")
        if stored != xxh32(bytes(out[frame_start:])):
            raise CorruptDataError("LZ4 content checksum mismatch")
        if len(out) - frame_start != content_size:
            raise CorruptDataError("LZ4 content size mismatch")
        return pos + 4


register_codec("lz4", LZ4Compressor)

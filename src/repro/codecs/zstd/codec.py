"""Zstd-style frame format and the public compressor class."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.codecs.base import (
    Compressor,
    CorruptDataError,
    StageCounters,
    register_codec,
)
from repro.codecs.checksum import xxh32
from repro.codecs.matchfinders import MatchFinderParams, finder_for_strategy
from repro.codecs.zstd import blocks as zblocks
from repro.codecs.zstd import params as zparams
from repro.codecs.zstd.dictionary import dictionary_id

_MAGIC = b"RZST"
_FLAG_CHECKSUM = 0x01
_FLAG_DICT_ID = 0x02

_BLOCK_RAW = 0
_BLOCK_RLE = 1
_BLOCK_COMPRESSED = 2

_BLOCK_TYPE_NAMES = {0: "raw", 1: "rle", 2: "compressed"}


@dataclass(frozen=True)
class FrameInfo:
    """Parsed frame metadata (no payload decoding)."""

    content_size: int
    window_log: int
    has_checksum: bool
    dict_id: Optional[int]
    block_count: int
    block_types: Tuple[str, ...]
    compressed_size: int


def _parse_header(
    payload: bytes, pos: int
) -> Tuple[int, int, int, Optional[int], int]:
    """The frame header at ``pos``: ``(flags, window_log, content_size,
    dict_id, offset of the first block)``."""
    if payload[pos : pos + 4] != _MAGIC:
        raise CorruptDataError("bad zstd frame magic")
    if len(payload) - pos < 14:
        raise CorruptDataError("truncated zstd frame header")
    flags = payload[pos + 4]
    window_log = payload[pos + 5]
    content_size = int.from_bytes(payload[pos + 6 : pos + 14], "little")
    pos += 14
    dict_id: Optional[int] = None
    if flags & _FLAG_DICT_ID:
        if pos + 4 > len(payload):
            raise CorruptDataError("truncated dictionary id")
        dict_id = int.from_bytes(payload[pos : pos + 4], "little")
        pos += 4
    return flags, window_log, content_size, dict_id, pos


def _frame_info(payload: bytes, start: int) -> FrameInfo:
    """Walk the headers of the frame at ``start`` without decoding."""
    flags, window_log, content_size, dict_id, pos = _parse_header(payload, start)
    block_types = []
    while True:
        if pos + 4 > len(payload):
            raise CorruptDataError("truncated block header")
        header = int.from_bytes(payload[pos : pos + 4], "little")
        pos += 4
        block_type = header & 0x03
        if block_type not in _BLOCK_TYPE_NAMES:
            raise CorruptDataError(f"unknown block type {block_type}")
        block_types.append(_BLOCK_TYPE_NAMES[block_type])
        size = header >> 3
        if block_type == _BLOCK_RLE:
            pos += 1
        else:
            pos += size
        if header & 0x04:
            break
    if flags & _FLAG_CHECKSUM:
        pos += 4
    if pos > len(payload):
        raise CorruptDataError("frame shorter than headers claim")
    return FrameInfo(
        content_size=content_size,
        window_log=window_log,
        has_checksum=bool(flags & _FLAG_CHECKSUM),
        dict_id=dict_id,
        block_count=len(block_types),
        block_types=tuple(block_types),
        compressed_size=pos - start,
    )


def inspect_frame(payload: bytes) -> FrameInfo:
    """Parse a frame's headers without decompressing any block.

    The streaming-inspection entry point every production frame format
    offers (``zstd --list``): callers can budget memory (content size,
    window) and route by dictionary id before paying for decoding.
    """
    return _frame_info(payload, 0)


class ZstdCompressor(Compressor):
    """Zstandard-style codec, levels -5..22, with dictionary support."""

    name = "zstd"
    min_level = zparams.MIN_LEVEL
    max_level = zparams.MAX_LEVEL
    default_level = 3

    def supports_dictionaries(self) -> bool:
        return True

    def params_for_level(
        self, level: int, input_size: int = 0
    ) -> MatchFinderParams:
        """Resolved match-finder parameters (after small-input shrinking)."""
        params = zparams.LEVEL_PARAMS[level]
        if input_size:
            params = zparams.shrink_for_input(params, input_size)
        return params

    def frame_spans(self, payload: bytes) -> List[Tuple[int, int]]:
        spans: List[Tuple[int, int]] = []
        pos = 0
        while pos < len(payload):
            end = pos + _frame_info(payload, pos).compressed_size
            spans.append((pos, end))
            pos = end
        return spans

    def _compress(
        self,
        data: bytes,
        level: int,
        dictionary: Optional[bytes],
        counters: StageCounters,
    ) -> bytes:
        dict_bytes = dictionary or b""
        # Table shrinking keys off the whole match window: input plus any
        # dictionary history (otherwise a small item's window could not
        # reach back into its dictionary at all).
        params = self.params_for_level(level, len(data) + len(dict_bytes))
        finder = finder_for_strategy(params.strategy)

        out = bytearray(_MAGIC)
        flags = _FLAG_CHECKSUM | (_FLAG_DICT_ID if dictionary is not None else 0)
        out.append(flags)
        out.append(params.window_log)
        out.extend(len(data).to_bytes(8, "little"))
        if dictionary is not None:
            out.extend(dictionary_id(bytes(dict_bytes)).to_bytes(4, "little"))

        block_size = zparams.MAX_BLOCK_SIZE
        offsets = range(0, len(data), block_size) if data else []
        starts = list(offsets)
        for index, block_start in enumerate(starts):
            chunk = data[block_start : block_start + block_size]
            is_last = index == len(starts) - 1
            if chunk and chunk.count(chunk[0]) == len(chunk):
                # Constant block: emit an RLE block without parsing.
                out.extend(self._block_header(_BLOCK_RLE, len(chunk), is_last))
                out.append(chunk[0])
                continue
            # The dictionary seeds the match window of the first block only
            # (blocks are otherwise independent; see DESIGN.md section 3).
            history = dict_bytes if index == 0 else b""
            body = self._compress_block(chunk, history, finder, params, counters)
            self._append_block(out, body, chunk, is_last)
        if not starts:
            out.extend(self._block_header(_BLOCK_RAW, 0, True))
        out.extend(xxh32(data).to_bytes(4, "little"))
        return bytes(out)

    def _compress_block(
        self,
        chunk: bytes,
        history: bytes,
        finder,
        params: MatchFinderParams,
        counters: StageCounters,
    ) -> bytes:
        buffer = history + chunk
        tokens = finder.parse(buffer, len(history), params, counters)
        return zblocks.encode_block(buffer, len(history), tokens, counters)

    @staticmethod
    def _block_header(block_type: int, size: int, is_last: bool) -> bytes:
        value = block_type | (0x04 if is_last else 0) | (size << 3)
        return value.to_bytes(4, "little")

    def _append_block(
        self,
        out: bytearray,
        body: bytes,
        chunk: bytes,
        is_last: bool,
    ) -> None:
        if len(body) + 4 >= len(chunk):
            out.extend(self._block_header(_BLOCK_RAW, len(chunk), is_last))
            out.extend(chunk)
        else:
            out.extend(self._block_header(_BLOCK_COMPRESSED, len(body), is_last))
            out.extend(body)

    def _decompress(
        self,
        payload: bytes,
        dictionary: Optional[bytes],
        counters: StageCounters,
    ) -> bytes:
        if not payload:
            raise CorruptDataError("bad zstd frame magic")
        out = bytearray()
        pos = 0
        # A stream is one or more concatenated frames; their contents
        # concatenate (the real zstd frame contract, and what the parallel
        # chunked engine emits -- one independent frame per chunk).
        while pos < len(payload):
            pos = self._decode_frame(payload, pos, dictionary, counters, out)
        return bytes(out)

    def _decode_frame(
        self,
        payload: bytes,
        pos: int,
        dictionary: Optional[bytes],
        counters: StageCounters,
        out: bytearray,
    ) -> int:
        """Decode one frame at ``pos`` into ``out``; returns the end offset."""
        flags, __, content_size, stored_id, pos = _parse_header(payload, pos)
        dict_bytes = b""
        if stored_id is not None:
            if dictionary is None:
                raise CorruptDataError("frame requires a dictionary")
            if stored_id != dictionary_id(bytes(dictionary)):
                raise CorruptDataError("dictionary mismatch")
            dict_bytes = dictionary

        frame_start = len(out)
        self._check_output_budget(frame_start + content_size)
        first = True
        while True:
            self._check_output_budget(len(out))
            if pos + 4 > len(payload):
                raise CorruptDataError("truncated block header")
            header = int.from_bytes(payload[pos : pos + 4], "little")
            pos += 4
            block_type = header & 0x03
            is_last = bool(header & 0x04)
            size = header >> 3
            if block_type == _BLOCK_RAW:
                if pos + size > len(payload):
                    raise CorruptDataError("truncated raw block")
                self._check_output_budget(len(out) + size)
                out.extend(payload[pos : pos + size])
                counters.literal_bytes_copied += size
                pos += size
            elif block_type == _BLOCK_RLE:
                if pos >= len(payload):
                    raise CorruptDataError("truncated RLE block")
                # budget check BEFORE the run is materialized: a corrupt
                # size field must not allocate half a gigabyte first
                self._check_output_budget(len(out) + size)
                out.extend(bytes([payload[pos]]) * size)
                counters.match_bytes_copied += size
                pos += 1
            elif block_type == _BLOCK_COMPRESSED:
                if pos + size > len(payload):
                    raise CorruptDataError("truncated compressed block")
                history = dict_bytes if first else b""
                out.extend(
                    zblocks.decode_block(payload[pos : pos + size], counters, history)
                )
                pos += size
            else:
                raise CorruptDataError(f"unknown block type {block_type}")
            first = False
            if is_last:
                break
        if flags & _FLAG_CHECKSUM:
            if pos + 4 > len(payload):
                raise CorruptDataError("missing content checksum")
            stored = int.from_bytes(payload[pos : pos + 4], "little")
            if stored != xxh32(bytes(out[frame_start:])):
                raise CorruptDataError("zstd content checksum mismatch")
            pos += 4
        if len(out) - frame_start != content_size:
            raise CorruptDataError("zstd content size mismatch")
        return pos


register_codec("zstd", ZstdCompressor)

"""Chunked streaming compression with window linking.

Production compressors expose streaming modes where the match window spans
chunk boundaries (LZ4 frame "block linking", zstd streaming contexts), so a
long stream compressed in small chunks still exploits cross-chunk
redundancy. The wrapper here chains chunks by feeding the tail of the
previous plaintext as the dictionary for the next chunk -- decompression
must replay chunks in order, as with any linked stream.

Works with any dictionary-capable codec (the zstd-style one here).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.codecs.base import CodecError, Compressor, StageCounters
from repro.codecs.varint import read_uvarint, write_uvarint


class StreamCompressor:
    """Compresses a sequence of chunks with a linked window."""

    def __init__(
        self,
        codec: Compressor,
        level: Optional[int] = None,
        window_bytes: int = 1 << 16,
    ) -> None:
        if not codec.supports_dictionaries():
            raise CodecError(
                f"{codec.name} cannot link windows (no dictionary support)"
            )
        if window_bytes <= 0:
            raise ValueError("window_bytes must be positive")
        self.codec = codec
        self.level = level if level is not None else codec.default_level
        self.window_bytes = window_bytes
        self._history = b""
        self.counters = StageCounters()

    def compress_chunk(self, chunk: bytes) -> bytes:
        """Compress one chunk against the linked window; returns a record."""
        chunk = bytes(chunk)
        dictionary = self._history if self._history else None
        result = self.codec.compress(chunk, self.level, dictionary=dictionary)
        self.counters.merge(result.counters)
        self._history = (self._history + chunk)[-self.window_bytes :]
        record = bytearray()
        write_uvarint(record, len(result.data))
        record.extend(result.data)
        return bytes(record)

    def compress_stream(self, chunks: Iterable[bytes]) -> bytes:
        """Compress all chunks into one concatenated record stream."""
        out = bytearray()
        for chunk in chunks:
            out.extend(self.compress_chunk(chunk))
        return bytes(out)


# repro: lint-ok[U001] -- the only decoder of the stream StreamCompressor
# writes and bench_ext_streaming measures; a format needs its reader
class StreamDecompressor:
    """Replays a linked-chunk stream in order."""

    def __init__(self, codec: Compressor, window_bytes: int = 1 << 16) -> None:
        if not codec.supports_dictionaries():
            raise CodecError(
                f"{codec.name} cannot link windows (no dictionary support)"
            )
        self.codec = codec
        self.window_bytes = window_bytes
        self._history = b""
        self.counters = StageCounters()

    def decompress_chunk(self, record: bytes, pos: int = 0) -> tuple:
        """Decode one record at ``pos``; returns (chunk, next_pos)."""
        size, pos = read_uvarint(record, pos)
        if pos + size > len(record):
            raise CodecError("truncated stream record")
        dictionary = self._history if self._history else None
        result = self.codec.decompress(
            record[pos : pos + size], dictionary=dictionary
        )
        self.counters.merge(result.counters)
        self._history = (self._history + result.data)[-self.window_bytes :]
        return result.data, pos + size

    # repro: lint-ok[U001] -- StreamDecompressor's entry point (see above)
    def decompress_stream(self, stream: bytes) -> Iterator[bytes]:
        """Yield every chunk of a concatenated record stream, in order."""
        pos = 0
        while pos < len(stream):
            chunk, pos = self.decompress_chunk(stream, pos)
            yield chunk


def stream_roundtrip_ratio(
    codec: Compressor,
    chunks: List[bytes],
    level: Optional[int] = None,
    window_bytes: int = 1 << 16,
) -> float:
    """Convenience: linked-stream compression ratio over ``chunks``."""
    compressor = StreamCompressor(codec, level=level, window_bytes=window_bytes)
    stream = compressor.compress_stream(chunks)
    total = sum(len(c) for c in chunks)
    return total / len(stream) if stream else 1.0

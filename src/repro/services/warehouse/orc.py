"""ORC-like columnar file format.

Columns are type-encoded first (delta+zigzag varints for integers,
dictionary encoding for low-cardinality strings, bit-packing for booleans),
then chopped into blocks of up to 256 KB and handed to the codec -- the
exact pipeline the paper describes for Meta's warehouse.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.codecs import Compressor, get_codec
from repro.codecs.base import CorruptDataError, StageCounters
from repro.codecs.varint import read_uvarint, write_uvarint

_MAGIC = b"RORC"
MAX_ORC_BLOCK = 1 << 18  # 256 KB, as in Section IV-B

ColumnValues = Union[np.ndarray, List[str]]

_KIND_INT = 0
_KIND_FLOAT = 1
_KIND_STRING = 2
_KIND_BOOL = 3


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def classify_column(values: ColumnValues) -> int:
    """Infer the encoder kind for a column."""
    if isinstance(values, list):
        return _KIND_STRING
    if values.dtype == np.bool_:
        return _KIND_BOOL
    if np.issubdtype(values.dtype, np.integer):
        return _KIND_INT
    if np.issubdtype(values.dtype, np.floating):
        return _KIND_FLOAT
    raise ValueError(f"unsupported column dtype {values.dtype}")


def encode_column(values: ColumnValues) -> Tuple[int, bytes]:
    """Type-encode one column; returns (kind, encoded_bytes)."""
    kind = classify_column(values)
    out = bytearray()
    if kind == _KIND_INT:
        previous = 0
        for value in values:
            value = int(value)
            write_uvarint(out, _zigzag(value - previous))
            previous = value
    elif kind == _KIND_FLOAT:
        out.extend(np.asarray(values, dtype="<f8").tobytes())
    elif kind == _KIND_BOOL:
        bits = np.packbits(np.asarray(values, dtype=np.bool_))
        out.extend(bits.tobytes())
    else:  # strings: dictionary encoding
        pool: Dict[str, int] = {}
        for value in values:
            if value not in pool:
                pool[value] = len(pool)
        write_uvarint(out, len(pool))
        for value in sorted(pool, key=pool.get):
            encoded = value.encode("utf-8")
            write_uvarint(out, len(encoded))
            out.extend(encoded)
        for value in values:
            write_uvarint(out, pool[value])
    return kind, bytes(out)


def decode_column(kind: int, payload: bytes, row_count: int) -> ColumnValues:
    """Inverse of :func:`encode_column`."""
    if kind == _KIND_INT:
        values = np.empty(row_count, dtype=np.int64)
        pos = 0
        previous = 0
        for index in range(row_count):
            delta, pos = read_uvarint(payload, pos)
            previous += _unzigzag(delta)
            values[index] = previous
        return values
    if kind == _KIND_FLOAT:
        return np.frombuffer(payload[: 8 * row_count], dtype="<f8").copy()
    if kind == _KIND_BOOL:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        return bits[:row_count].astype(np.bool_)
    if kind == _KIND_STRING:
        pos = 0
        pool_size, pos = read_uvarint(payload, pos)
        pool: List[str] = []
        for __ in range(pool_size):
            length, pos = read_uvarint(payload, pos)
            pool.append(payload[pos : pos + length].decode("utf-8"))
            pos += length
        values = []
        for __ in range(row_count):
            index, pos = read_uvarint(payload, pos)
            values.append(pool[index])
        return values
    raise CorruptDataError(f"unknown column kind {kind}")


@dataclass
class OrcStats:
    """Compression work for one file write or read."""

    compress_counters: StageCounters = field(default_factory=StageCounters)
    decompress_counters: StageCounters = field(default_factory=StageCounters)
    encoded_bytes: int = 0
    compressed_bytes: int = 0
    blocks: int = 0


class OrcWriter:
    """Serializes a column table into the ORC-like byte format."""

    def __init__(
        self,
        codec: Optional[Compressor] = None,
        level: int = 7,
        block_size: int = MAX_ORC_BLOCK,
    ) -> None:
        if block_size > MAX_ORC_BLOCK:
            raise ValueError("ORC blocks are capped at 256KB")
        self.codec = codec if codec is not None else get_codec("zstd")
        self.level = level
        self.block_size = block_size
        self.stats = OrcStats()

    def write(self, table: Dict[str, ColumnValues]) -> bytes:
        """Encode + compress every column; returns the file bytes."""
        if not table:
            raise ValueError("table has no columns")
        row_counts = {len(v) for v in table.values()}
        if len(row_counts) != 1:
            raise ValueError("columns must have equal row counts")
        row_count = row_counts.pop()
        out = bytearray(_MAGIC)
        write_uvarint(out, row_count)
        write_uvarint(out, len(table))
        for name, values in table.items():
            kind, encoded = encode_column(values)
            self.stats.encoded_bytes += len(encoded)
            name_bytes = name.encode("utf-8")
            write_uvarint(out, len(name_bytes))
            out.extend(name_bytes)
            out.append(kind)
            write_uvarint(out, max(1, -(-len(encoded) // self.block_size)))
            for frame in self._compress_blocks(encoded):
                self.stats.compressed_bytes += len(frame)
                self.stats.blocks += 1
                write_uvarint(out, len(frame))
                out.extend(frame)
        return bytes(out)

    def _compress_blocks(self, encoded: bytes) -> List[bytes]:
        """One independent frame per ``block_size`` slice of a column."""
        blocks = [
            encoded[i : i + self.block_size]
            for i in range(0, len(encoded), self.block_size)
        ] or [b""]
        frames: List[bytes] = []
        for block in blocks:
            result = self.codec.compress(block, self.level)
            self.stats.compress_counters.merge(result.counters)
            frames.append(result.data)
        return frames


class OrcReader:
    """Reads files produced by :class:`OrcWriter`."""

    def __init__(self, codec: Optional[Compressor] = None) -> None:
        self.codec = codec if codec is not None else get_codec("zstd")
        self.stats = OrcStats()

    def read(
        self, payload: bytes, columns: Optional[List[str]] = None
    ) -> Dict[str, ColumnValues]:
        """Decompress + decode columns back to a table.

        ``columns`` enables projection pushdown: only the named columns are
        decompressed, the rest are skipped block-by-block without touching
        the codec -- the columnar format's core read-path saving.
        """
        if payload[:4] != _MAGIC:
            raise CorruptDataError("bad ORC-like magic")
        wanted = set(columns) if columns is not None else None
        pos = 4
        row_count, pos = read_uvarint(payload, pos)
        column_count, pos = read_uvarint(payload, pos)
        table: Dict[str, ColumnValues] = {}
        for __ in range(column_count):
            name_len, pos = read_uvarint(payload, pos)
            name = payload[pos : pos + name_len].decode("utf-8")
            pos += name_len
            kind = payload[pos]
            pos += 1
            block_count, pos = read_uvarint(payload, pos)
            if wanted is not None and name not in wanted:
                for __ in range(block_count):
                    size, pos = read_uvarint(payload, pos)
                    pos += size  # skip without decompressing
                continue
            encoded = bytearray()
            for __ in range(block_count):
                size, pos = read_uvarint(payload, pos)
                result = self.codec.decompress(payload[pos : pos + size])
                self.stats.decompress_counters.merge(result.counters)
                self.stats.blocks += 1
                encoded.extend(result.data)
                pos += size
            table[name] = decode_column(kind, bytes(encoded), row_count)
        if wanted is not None:
            missing = wanted - set(table)
            if missing:
                raise KeyError(f"columns not in file: {sorted(missing)}")
        return table

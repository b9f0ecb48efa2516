"""Striped ORC-like files: row-group selection (predicate pushdown by rows).

Real ORC splits a file into stripes of N rows so a reader touching a row
range only decompresses the overlapping stripes. A striped file here is a
stripe directory wrapping whole ORC-like stripe payloads::

    "RORS" | varint stripe_count | { varint row_count | varint byte_len | stripe } *
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codecs import Compressor
from repro.codecs.base import CorruptDataError
from repro.codecs.varint import read_uvarint, write_uvarint
from repro.services.warehouse.orc import (
    ColumnValues,
    OrcReader,
    OrcWriter,
)

_MAGIC = b"RORS"


def _slice_table(
    table: Dict[str, ColumnValues], start: int, stop: int
) -> Dict[str, ColumnValues]:
    return {
        name: values[start:stop] if isinstance(values, list) else values[start:stop]
        for name, values in table.items()
    }


def _concat_columns(parts: List[ColumnValues]) -> ColumnValues:
    if isinstance(parts[0], list):
        out: List[str] = []
        for part in parts:
            out.extend(part)
        return out
    return np.concatenate(parts)


# repro: lint-ok[U001] -- no reader outside its tests; deleting RORS, with
# its 10 tests, is a change of its own (ROADMAP item 11(a))
class StripedOrcWriter:
    """Writes a table as fixed-row-count stripes."""

    def __init__(
        self,
        codec: Optional[Compressor] = None,
        level: int = 7,
        stripe_rows: int = 10_000,
    ) -> None:
        if stripe_rows <= 0:
            raise ValueError("stripe_rows must be positive")
        self.codec = codec
        self.level = level
        self.stripe_rows = stripe_rows
        self.stripe_writers: List[OrcWriter] = []

    def write(self, table: Dict[str, ColumnValues]) -> bytes:
        if not table:
            raise ValueError("table has no columns")
        row_count = len(next(iter(table.values())))
        out = bytearray(_MAGIC)
        stripes: List[Tuple[int, bytes]] = []
        for start in range(0, row_count, self.stripe_rows) or [0]:
            stop = min(start + self.stripe_rows, row_count)
            writer = OrcWriter(codec=self.codec, level=self.level)
            payload = writer.write(_slice_table(table, start, stop))
            self.stripe_writers.append(writer)
            stripes.append((stop - start, payload))
        write_uvarint(out, len(stripes))
        for rows, payload in stripes:
            write_uvarint(out, rows)
            write_uvarint(out, len(payload))
            out.extend(payload)
        return bytes(out)


# repro: lint-ok[U001] -- StripedOrcWriter's reader, deferred with it
class StripedOrcReader:
    """Reads striped files with stripe-level and column-level pushdown."""

    def __init__(self, codec: Optional[Compressor] = None) -> None:
        self.codec = codec
        self.stripe_readers: List[OrcReader] = []

    def _directory(self, payload: bytes) -> List[Tuple[int, int, int]]:
        """(row_count, offset, byte_len) per stripe."""
        if payload[:4] != _MAGIC:
            raise CorruptDataError("bad striped-ORC magic")
        pos = 4
        count, pos = read_uvarint(payload, pos)
        directory = []
        for __ in range(count):
            rows, pos = read_uvarint(payload, pos)
            size, pos = read_uvarint(payload, pos)
            directory.append((rows, pos, size))
            pos += size
        if pos > len(payload):
            raise CorruptDataError("striped file shorter than directory claims")
        return directory

    def row_count(self, payload: bytes) -> int:
        return sum(rows for rows, __, __ in self._directory(payload))

    def read(
        self,
        payload: bytes,
        columns: Optional[List[str]] = None,
        row_range: Optional[Tuple[int, int]] = None,
    ) -> Dict[str, ColumnValues]:
        """Read columns, touching only stripes overlapping ``row_range``.

        ``row_range`` is [start, stop) in file row numbers; the result
        contains exactly those rows.
        """
        directory = self._directory(payload)
        total_rows = sum(rows for rows, __, __ in directory)
        start, stop = row_range if row_range is not None else (0, total_rows)
        if start < 0 or stop > total_rows or start > stop:
            raise ValueError(f"row range [{start}, {stop}) outside 0..{total_rows}")
        if start == stop:
            return {}

        collected: Dict[str, List[ColumnValues]] = {}
        row_base = 0
        for rows, offset, size in directory:
            stripe_start, stripe_stop = row_base, row_base + rows
            row_base = stripe_stop
            if stripe_stop <= start or stripe_start >= stop:
                continue  # stripe skipped entirely: nothing decompressed
            reader = OrcReader(codec=self.codec)
            self.stripe_readers.append(reader)
            stripe = reader.read(payload[offset : offset + size], columns=columns)
            trim_lo = max(0, start - stripe_start)
            trim_hi = min(rows, stop - stripe_start)
            for name, values in stripe.items():
                collected.setdefault(name, []).append(values[trim_lo:trim_hi])
        return {name: _concat_columns(parts) for name, parts in collected.items()}

    @property
    def blocks_decompressed(self) -> int:
        return sum(reader.stats.blocks for reader in self.stripe_readers)

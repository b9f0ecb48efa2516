"""The four warehouse workflows of Section IV-B (DW1-DW4).

Every workflow returns a :class:`WorkflowReport` attributing modeled cycles
to compression, decompression, and the workflow's own business logic, which
is how Figs 6 and 7 (cycle shares and the match-finding/entropy split) are
regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.codecs.base import get_codec
from repro.codecs.base import StageCounters
from repro.perfmodel.machine import DEFAULT_MACHINE
from repro.services.warehouse.orc import ColumnValues, OrcReader, OrcWriter


@dataclass
class WorkflowReport:
    """Cycle attribution for one workflow run."""

    name: str
    compress_cycles: float = 0.0
    decompress_cycles: float = 0.0
    other_cycles: float = 0.0
    match_finding_cycles: float = 0.0
    compress_counters: StageCounters = field(default_factory=StageCounters)
    decompress_counters: StageCounters = field(default_factory=StageCounters)

    @property
    def total_cycles(self) -> float:
        return self.compress_cycles + self.decompress_cycles + self.other_cycles

    @property
    def zstd_share(self) -> float:
        """Fraction of total cycles in (de)compression -- Fig. 6's metric."""
        total = self.total_cycles
        return (self.compress_cycles + self.decompress_cycles) / total if total else 0.0

    @property
    def compress_share(self) -> float:
        total = self.total_cycles
        return self.compress_cycles / total if total else 0.0

    @property
    def decompress_share(self) -> float:
        total = self.total_cycles
        return self.decompress_cycles / total if total else 0.0

    @property
    def match_finding_share_of_compression(self) -> float:
        """Share of compression cycles spent match finding -- Fig. 7's split."""
        if self.compress_cycles <= 0:
            return 0.0
        return self.match_finding_cycles / self.compress_cycles


class _WarehouseJob:
    """Shared plumbing: codec, machine model, cycle attribution."""

    #: modeled non-compression work per byte touched by the job
    business_cycles_per_byte = 5.0
    #: Zstd level this workflow uses (Section IV-B)
    compression_level = 1

    def __init__(self, level: Optional[int] = None) -> None:
        self.codec = get_codec("zstd")
        if level is not None:
            self.compression_level = level

    def _writer(self) -> OrcWriter:
        return OrcWriter(codec=self.codec, level=self.compression_level)

    def _reader(self) -> OrcReader:
        return OrcReader(codec=self.codec)

    def _account_write(self, report: WorkflowReport, writer: OrcWriter) -> None:
        breakdown = DEFAULT_MACHINE.compress_breakdown(
            self.codec.name, writer.stats.compress_counters
        )
        report.compress_cycles += breakdown.match_finding + breakdown.entropy + breakdown.overhead
        report.match_finding_cycles += breakdown.match_finding
        report.compress_counters.merge(writer.stats.compress_counters)

    def _account_read(self, report: WorkflowReport, reader: OrcReader) -> None:
        report.decompress_cycles += DEFAULT_MACHINE.decompress_cycles(
            self.codec.name, reader.stats.decompress_counters
        )
        report.decompress_counters.merge(reader.stats.decompress_counters)

    def _account_business(self, report: WorkflowReport, bytes_touched: int) -> None:
        report.other_cycles += self.business_cycles_per_byte * bytes_touched


class IngestionJob(_WarehouseJob):
    """DW1: reads source data, encodes ORC, compresses at Zstd level 7.

    "The data is destined for long-term storage, so a high compression ratio
    is favored over a high compression speed."
    """

    compression_level = 7
    business_cycles_per_byte = 10.9

    def run(self, table: Dict[str, ColumnValues]) -> "IngestionResult":
        report = WorkflowReport("DW1")
        raw_size = _table_bytes(table)
        self._account_business(report, raw_size)  # parse + ORC encode
        writer = self._writer()
        payload = writer.write(table)
        self._account_write(report, writer)
        return IngestionResult(payload=payload, report=report)


@dataclass
class IngestionResult:
    payload: bytes
    report: WorkflowReport


class ShuffleJob(_WarehouseJob):
    """DW2: reads input, splits rows by destination worker, writes level 1."""

    compression_level = 1
    business_cycles_per_byte = 10.2

    def run(self, payload: bytes, partitions: int = 4) -> "ShuffleResult":
        report = WorkflowReport("DW2")
        reader = self._reader()
        table = reader.read(payload)
        self._account_read(report, reader)
        row_count = len(next(iter(table.values())))
        self._account_business(report, _table_bytes(table))
        outputs: List[bytes] = []
        for part in range(partitions):
            rows = [i for i in range(row_count) if i % partitions == part]
            partition = {name: _take(values, rows) for name, values in table.items()}
            writer = self._writer()
            out = writer.write(partition)
            self._account_write(report, writer)
            outputs.append(out)
        return ShuffleResult(partitions=outputs, report=report)


@dataclass
class ShuffleResult:
    partitions: List[bytes]
    report: WorkflowReport


class SparkJob(_WarehouseJob):
    """DW3: reads input, computes, writes results back (level 1)."""

    compression_level = 1
    business_cycles_per_byte = 3.2

    def run(self, payload: bytes) -> "SparkResult":
        report = WorkflowReport("DW3")
        reader = self._reader()
        table = reader.read(payload)
        self._account_read(report, reader)
        self._account_business(report, 2 * _table_bytes(table))  # the computation
        # Aggregate: keep a coarse per-column summary table as the "result".
        summary = _aggregate(table)
        writer = self._writer()
        out = writer.write(summary)
        self._account_write(report, writer)
        return SparkResult(output=out, report=report)


@dataclass
class SparkResult:
    output: bytes
    report: WorkflowReport


class MLDataJob(_WarehouseJob):
    """DW4: consumes warehouse data as model input (level 1 both ways)."""

    compression_level = 1
    business_cycles_per_byte = 14.0

    def run(self, payload: bytes) -> "MLDataResult":
        report = WorkflowReport("DW4")
        reader = self._reader()
        table = reader.read(payload)
        self._account_read(report, reader)
        self._account_business(report, 3 * _table_bytes(table))  # featurization
        writer = self._writer()
        out = writer.write(table)  # re-written as training shards
        self._account_write(report, writer)
        return MLDataResult(shard=out, report=report)


@dataclass
class MLDataResult:
    shard: bytes
    report: WorkflowReport


# -- helpers -------------------------------------------------------------------


def _table_bytes(table: Dict[str, ColumnValues]) -> int:
    total = 0
    for values in table.values():
        if isinstance(values, list):
            total += sum(len(v) for v in values)
        else:
            total += values.nbytes
    return total


def _take(values: ColumnValues, rows: List[int]) -> ColumnValues:
    if isinstance(values, list):
        return [values[i] for i in rows]
    return values[rows]


def _aggregate(table: Dict[str, ColumnValues]) -> Dict[str, ColumnValues]:
    """Per-column summary statistics as an aligned two-column table."""
    import numpy as np

    stat_names: List[str] = []
    stat_values: List[float] = []
    for name, values in table.items():
        if isinstance(values, list):
            stat_names.append(f"{name}_cardinality")
            stat_values.append(float(len(set(values))))
        elif values.dtype == np.bool_:
            stat_names.append(f"{name}_true_count")
            stat_values.append(float(values.sum()))
        else:
            stat_names.append(f"{name}_mean")
            stat_values.append(float(np.asarray(values, dtype=np.float64).mean()))
    return {
        "stat": stat_names,
        "value": np.array(stat_values, dtype=np.float64),
    }

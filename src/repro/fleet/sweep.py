"""Measured fleet sweep: per-(service, codec, level) compression cells.

The sampling profiler attributes *cycles*; this module measures *work*: for
every compression-using service in the registry it builds one measurement
cell per (codec, level) in the service's mix, compresses a deterministic
category-representative payload, and reports ratio plus modeled speeds.
Cells are independent, so the grid fans out over
:func:`repro.parallel.run_cells` -- ``repro fleet-report
--measure --jobs N`` cuts the measured section's wall-clock by roughly the
worker count while producing byte-identical tables at any job count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.codecs.base import get_codec
from repro.fleet.profiles import DEFAULT_FLEET
from repro.parallel.sweep import run_cells

#: codec registry names for the profile algorithm mix keys
_ALGORITHM_CODECS = {"zstd": "zstd", "lz4": "lz4", "zlib": "zlib"}

#: default payload size per cell; small enough that a full-fleet sweep
#: stays interactive on the pure-Python codecs
DEFAULT_CELL_BYTES = 4096


@dataclass(frozen=True)
class MeasurementCell:
    """One (service, codec, level) grid point of the measured sweep."""

    service: str
    category: str
    codec: str
    level: int
    payload_bytes: int
    seed: int


@dataclass(frozen=True)
class CellMeasurement:
    """What one cell reports back from the pool."""

    ratio: float
    compress_mbps: float
    decompress_mbps: float
    raw_bytes: int
    compressed_bytes: int


def _cell_payload(cell: MeasurementCell) -> bytes:
    """Deterministic category-representative payload for one cell."""
    from repro.corpus.cache_items import CACHE1_TYPES, generate_cache_items
    from repro.corpus.logs import generate_logs
    from repro.corpus.orcdata import generate_table
    from repro.corpus.records import generate_records

    seed = cell.seed
    if cell.category == "Cache":
        items = generate_cache_items(CACHE1_TYPES, count=32, seed=seed)
        blob = b"".join(data for __, data in items)
    elif cell.category == "Data Warehouse":
        from repro.services.warehouse.orc import encode_column

        table = generate_table(rows=256, seed=seed)
        blob = b"".join(encode_column(values)[1] for values in table.values())
    elif cell.category in ("Web", "Feed"):
        blob = generate_records(cell.payload_bytes, seed=seed)
    else:  # Ads, Key-Value Store, and anything new
        blob = generate_logs(cell.payload_bytes, seed=seed)
    while len(blob) < cell.payload_bytes:
        blob = blob + blob
    return blob[: cell.payload_bytes]


def measure_cell(cell: MeasurementCell) -> CellMeasurement:
    """Compress/decompress one cell's payload; module-level for the pool."""
    from repro.perfmodel.machine import DEFAULT_MACHINE

    codec = get_codec(cell.codec)
    payload = _cell_payload(cell)
    result = codec.compress(payload, cell.level)
    decoded = codec.decompress(result.data)
    return CellMeasurement(
        ratio=result.ratio,
        compress_mbps=DEFAULT_MACHINE.compress_speed(cell.codec, result.counters)
        / 1e6,
        decompress_mbps=DEFAULT_MACHINE.decompress_speed(
            cell.codec, decoded.counters
        )
        / 1e6,
        raw_bytes=len(payload),
        compressed_bytes=len(result.data),
    )


def fleet_measurement_cells(
    payload_bytes: int = DEFAULT_CELL_BYTES,
    max_level: int = 12,
) -> List[MeasurementCell]:
    """The full measured grid for the fleet, in deterministic order.

    zstd cells cover the service's level mix (clamped to ``max_level`` so a
    sweep never stalls on the optimal-parser levels); other codecs measure
    at their default level.
    """
    cells: List[MeasurementCell] = []
    for profile in DEFAULT_FLEET:
        if profile.compression_share <= 0:
            continue
        seed = sum(profile.name.encode()) * 7919
        for algorithm in sorted(profile.algorithm_mix):
            codec_name = _ALGORITHM_CODECS.get(algorithm)
            if codec_name is None:
                continue
            codec = get_codec(codec_name)
            if algorithm == "zstd" and profile.level_mix:
                levels = sorted(
                    min(level, max_level)
                    for level in profile.level_mix
                    if codec.min_level <= level <= codec.max_level
                )
                levels = sorted(set(levels))
            else:
                levels = [codec.default_level]
            for level in levels:
                cells.append(
                    MeasurementCell(
                        service=profile.name,
                        category=profile.category,
                        codec=codec_name,
                        level=level,
                        payload_bytes=payload_bytes,
                        seed=seed,
                    )
                )
    return cells


def run_fleet_sweep(
    jobs: Optional[int] = 1,
    payload_bytes: int = DEFAULT_CELL_BYTES,
) -> List[Tuple[MeasurementCell, CellMeasurement]]:
    """Measure every cell of the fleet grid, fanning out over ``jobs``."""
    cells = fleet_measurement_cells(payload_bytes=payload_bytes)
    return list(zip(cells, run_cells(measure_cell, cells, jobs=jobs)))


def format_fleet_sweep(
    results: List[Tuple[MeasurementCell, CellMeasurement]]
) -> str:
    """Fixed-width table of the measured sweep (byte-stable across jobs)."""
    lines = [
        f"{'service':20s} {'codec':6s} {'lvl':>3s} {'ratio':>7s} "
        f"{'comp MB/s':>10s} {'decomp MB/s':>12s}"
    ]
    for cell, measured in results:
        lines.append(
            f"{cell.service:20s} {cell.codec:6s} {cell.level:3d} "
            f"{measured.ratio:7.3f} {measured.compress_mbps:10.1f} "
            f"{measured.decompress_mbps:12.1f}"
        )
    return "\n".join(lines)

"""Sweep fan-out: cell order preserved, jobs=1 vs jobs=N byte-identical."""

import pytest

from repro.fleet import (
    fleet_measurement_cells,
    format_fleet_sweep,
    measure_cell,
    run_fleet_sweep,
)
from repro.parallel import run_cells


def _square(cell):
    return cell * cell


def test_results_align_with_cell_order():
    assert run_cells(_square, [3, 1, 4, 1, 5], jobs=1) == [9, 1, 16, 1, 25]


def test_pool_results_identical_to_serial():
    cells = list(range(40))
    assert run_cells(_square, cells, jobs=1) == run_cells(_square, cells, jobs=4)


def test_empty_sweep():
    assert run_cells(_square, [], jobs=4) == []


@pytest.fixture(scope="module")
def fleet_cells():
    return fleet_measurement_cells(payload_bytes=1024, max_level=3)


def test_fleet_cells_cover_every_service_and_codec(fleet_cells):
    services = {cell.service for cell in fleet_cells}
    assert len(services) >= 5  # the fleet model spans many services
    assert {cell.codec for cell in fleet_cells} >= {"zstd"}


def test_fleet_sweep_deterministic_across_jobs(fleet_cells):
    serial = run_cells(measure_cell, fleet_cells, jobs=1)
    pooled = run_cells(measure_cell, fleet_cells, jobs=4)
    assert serial == pooled
    table_serial = format_fleet_sweep(zip(fleet_cells, serial))
    table_pooled = format_fleet_sweep(zip(fleet_cells, pooled))
    assert table_serial == table_pooled


def test_run_fleet_sweep_end_to_end():
    measured = run_fleet_sweep(jobs=2, payload_bytes=512)
    assert measured
    for cell, measurement in measured:
        assert measurement.ratio > 0, cell
        assert measurement.raw_bytes > 0, cell
    text = format_fleet_sweep(measured)
    assert "service" in text.splitlines()[0] or "service" in text

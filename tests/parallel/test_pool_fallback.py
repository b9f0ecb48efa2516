"""A pool that cannot start runs its tasks in-process, and is counted.

``ProcessPoolExecutor`` imports ``multiprocessing`` when its first pool
starts, so a process without it (or without fork / semaphore support)
degrades to serial execution at that point. Each degrade bumps
``POOL_FALLBACKS``; ``serve-sim`` and ``cluster-sim`` print their run's
non-zero count on stderr and leave the scorecard on stdout as the serial
run's.
"""

from __future__ import annotations

import sys

import pytest

from repro.cli import main
from repro.parallel.executors import POOL_FALLBACKS, ProcessPoolExecutor


@pytest.fixture
def no_multiprocessing(monkeypatch):
    """``import multiprocessing`` raises ImportError from here on."""
    monkeypatch.setitem(sys.modules, "multiprocessing", None)


def _square(value: int) -> int:
    return value * value


def test_missing_multiprocessing_falls_back_to_serial_and_counts(no_multiprocessing):
    before = POOL_FALLBACKS.total()
    with ProcessPoolExecutor(2) as executor:
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert executor.map(_square, [4]) == [16]  # one pool start per executor
    assert POOL_FALLBACKS.total() == before + 1


def test_pool_start_failure_falls_back_and_counts(monkeypatch):
    import multiprocessing

    def refuse():
        raise OSError("no semaphores here")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    before = POOL_FALLBACKS.total()
    with ProcessPoolExecutor(3) as executor:
        assert executor.map(_square, [5, 6]) == [25, 36]
    assert POOL_FALLBACKS.total() == before + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["serve-sim", "--scenario", "baseline", "--seed", "7", "--scale", "0.05"],
        ["cluster-sim", "--scenario", "fleet-steady", "--seed", "7", "--scale", "0.05"],
    ],
)
def test_simulators_print_the_fallback_count(argv, capsys, monkeypatch):
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr()
    assert "could not start" not in serial.err

    monkeypatch.setitem(sys.modules, "multiprocessing", None)
    assert main(argv + ["--jobs", "2"]) == 0
    fallen_back = capsys.readouterr()
    assert fallen_back.out == serial.out
    assert "note: 1 process pool(s) could not start" in fallen_back.err

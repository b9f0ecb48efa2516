"""A pool that cannot start runs its tasks in-process, and is counted.

``ProcessPoolExecutor`` imports ``multiprocessing`` when its first pool
starts, so a process without it (or without fork / semaphore support)
degrades to serial execution at that point. Each degrade bumps
``POOL_FALLBACKS``; the commands that start pools (``compress``,
``decompress`` and ``fleet-report --measure``, each with ``--jobs``)
print their run's non-zero count on stderr and leave the report on
stdout as the serial run's.
"""

from __future__ import annotations

import sys

import pytest

from repro.cli import main
from repro.parallel.engine import compress_chunked
from repro.parallel.executors import POOL_FALLBACKS, ProcessPoolExecutor

#: several chunks of ``_CHUNK`` bytes, so the chunked engine starts a pool
_CORPUS = b"".join(bytes([i]) * 97 + b"pool fallback " for i in range(160))
_CHUNK = 4096


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
        ["compress", "{tmp}/corpus.bin", "{tmp}/out.zst", "--chunk-size", str(_CHUNK)],
        ["decompress", "{tmp}/frames.zst", "{tmp}/back.bin"],
        [
            "fleet-report", "--days", "1", "--samples-per-day", "2000",
            "--measure", "--measure-bytes", "256",
        ],
    ],
)
def test_simulators_print_the_fallback_count(argv, tmp_path, capsys, monkeypatch):
    """Each command that starts a pool: with no ``multiprocessing`` its
    ``--jobs 2`` run notes the fallback on stderr and prints the serial
    run's report."""
    (tmp_path / "corpus.bin").write_bytes(_CORPUS)
    frames = compress_chunked("zstd", _CORPUS, 1, chunk_size=_CHUNK, jobs=1)
    (tmp_path / "frames.zst").write_bytes(frames.data)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr()
    assert "could not start" not in serial.err

    monkeypatch.setitem(sys.modules, "multiprocessing", None)
    assert main(argv + ["--jobs", "2"]) == 0
    fallen_back = capsys.readouterr()
    assert fallen_back.out == serial.out
    assert "note: 1 process pool(s) could not start" in fallen_back.err

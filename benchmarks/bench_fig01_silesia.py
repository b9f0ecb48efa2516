"""Fig. 1: ratio and speed for Zstd/Zlib/LZ4, levels 1-9, Silesia-like files.

Paper shape: order-of-magnitude spread in ratio and speed across file
types; for every file, level up => ratio up, compression speed down; LZ4
fastest / zlib slowest at comparable levels.

The (codec, file, level) grid is evaluated through
:func:`repro.parallel.run_cells`; set ``REPRO_BENCH_JOBS=N`` to
fan the cells out over N worker processes (the table is byte-identical at
any job count, only wall-clock changes).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import format_table
from repro.codecs import get_codec
from repro.corpus import silesia_like_corpus
from repro.parallel import run_cells
from repro.perfmodel import DEFAULT_MACHINE

_FILE_SIZE = 1 << 14
_LEVELS = [1, 3, 5, 7, 9]
_CORPUS_SEED = 2023


@pytest.fixture(scope="module")
def corpus():
    return silesia_like_corpus(_FILE_SIZE, seed=_CORPUS_SEED)


def _measure_cell(cell):
    """One (codec, file, level) grid point; regenerates its own payload so
    it can run in a pool worker."""
    codec_name, file_name, level = cell
    codec = get_codec(codec_name)
    data = silesia_like_corpus(_FILE_SIZE, seed=_CORPUS_SEED)[file_name]
    result = codec.compress(data, level)
    decoded = codec.decompress(result.data)
    return (
        result.ratio,
        DEFAULT_MACHINE.compress_speed(codec_name, result.counters) / 1e6,
        DEFAULT_MACHINE.decompress_speed(codec_name, decoded.counters) / 1e6,
    )


def test_fig01_series(benchmark, corpus, figure_output):
    from repro.analysis import ascii_scatter

    cells = []
    for codec_name in ("zstd", "zlib", "lz4"):
        codec = get_codec(codec_name)
        for file_name in corpus:
            for level in _LEVELS:
                if codec.min_level <= level <= codec.max_level:
                    cells.append((codec_name, file_name, level))

    measurements = run_cells(
        _measure_cell, cells, jobs=int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    )

    rows = []
    scatter = {}
    for (codec_name, file_name, level), (ratio, comp, decomp) in zip(
        cells, measurements
    ):
        rows.append(
            [codec_name, file_name, level, f"{ratio:.2f}", f"{comp:.0f}", f"{decomp:.0f}"]
        )
        if file_name == "dickens-like":
            scatter.setdefault(codec_name, []).append((comp, ratio))
    figure_output(
        "fig01_silesia",
        format_table(
            ["codec", "file", "level", "ratio", "comp MB/s", "decomp MB/s"],
            rows,
            title="Fig. 1: compression ratio and speed across Silesia-like files",
        )
        + "\n\n"
        + ascii_scatter(
            scatter,
            x_label="compression MB/s",
            y_label="ratio",
            log_x=True,
            width=56,
            height=14,
        )
        + "\n (dickens-like file; levels trace each codec's curve right-to-left)",
    )

    # Benchmark kernel: zstd-3 on the text file (the figure's center point).
    zstd = get_codec("zstd")
    data = corpus["dickens-like"]
    benchmark(lambda: zstd.compress(data, 3))

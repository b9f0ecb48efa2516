"""Fig. 13: KVSTORE1 block-size sweep (1KB..64KB, Zstd level 1): compression
ratio, compression speed, and decompression time per block.

Paper shape: larger blocks give (usually) higher ratio, higher speed, and
longer per-block decompression time; very small blocks hit fixed
per-compression costs (shrunken hash tables fight call overhead), giving a
non-monotonic speed profile.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.corpus import generate_kv_records
from repro.perfmodel import DEFAULT_MACHINE
from repro.services.kvstore import SSTable

_BLOCK_SIZES = [1024, 2048, 4096, 8192, 16384, 32768, 65536]


@pytest.fixture(scope="module")
def sweep():
    entries = generate_kv_records(2500, seed=130)
    out = {}
    for block_size in _BLOCK_SIZES:
        table = SSTable.build(entries, level=1, block_size=block_size)
        ratio = table.raw_bytes / table.stored_bytes
        speed = DEFAULT_MACHINE.compress_speed(
            "zstd", table.stats.compress_counters
        )
        # average decode time over several point reads
        total_decode = 0.0
        probes = entries[:: max(1, len(entries) // 20)]
        for key, __ in probes:
            __, __, decode_seconds = table.get(key)
            total_decode += decode_seconds
        out[block_size] = (ratio, speed / 1e6, total_decode / len(probes) * 1e6)
    return out


def test_fig13_kvstore_blocks(benchmark, sweep, figure_output):
    rows = [
        [
            f"{block_size // 1024}KB",
            f"{ratio:.2f}",
            f"{speed:.0f}",
            f"{decode_us:.1f}",
        ]
        for block_size, (ratio, speed, decode_us) in sorted(sweep.items())
    ]
    figure_output(
        "fig13_kvstore_blocks",
        format_table(
            ["block", "ratio", "comp MB/s", "decomp us/block"],
            rows,
            title="Fig. 13: KVSTORE1 block-size sweep (Zstd level 1)",
        ),
    )
    ratios = [sweep[b][0] for b in _BLOCK_SIZES]
    decodes = [sweep[b][2] for b in _BLOCK_SIZES]
    # ratio (usually) grows with block size: endpoints strictly ordered
    assert ratios[-1] > ratios[0]
    # per-block decode time grows with block size
    assert decodes == sorted(decodes)
    # speed: large blocks beat tiny blocks (fixed costs amortized)
    assert sweep[65536][1] > sweep[1024][1]

    entries = generate_kv_records(400, seed=131)
    benchmark(lambda: SSTable.build(entries, level=1, block_size=16384))

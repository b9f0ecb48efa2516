"""Ablation: entropy stage (DESIGN.md section 5).

Holds the parse fixed (one lazy hash-chain parse) and swaps the entropy
stage: LZ4's byte-aligned raw encoding vs the Zstd-style Huffman+FSE coder.
Isolates the ratio/decompression-speed axis the paper attributes to the
entropy-encoding stage (Section II-B).
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.codecs.base import StageCounters
from repro.codecs.lz4 import block as lz4block
from repro.codecs.matchfinders import MatchFinderParams, finder_for_strategy
from repro.codecs.zstd import blocks as zblocks
from repro.corpus import generate_text
from repro.perfmodel import DEFAULT_MACHINE


@pytest.fixture(scope="module")
def comparison():
    data = generate_text(32768, seed=180)
    params = MatchFinderParams(
        strategy="lazy", search_depth=16, lazy_steps=1,
        min_match=4, max_offset=65535,
    )
    sequences = finder_for_strategy("lazy").parse(data, 0, params)

    out = {}
    # Byte-aligned (LZ4-style) encoding of the identical parse.
    enc_counters = StageCounters(bytes_in=len(data))
    lz4_payload = lz4block.encode_block(data, 0, sequences, enc_counters)
    dec_counters = StageCounters(bytes_in=len(lz4_payload))
    restored = lz4block.decode_block(lz4_payload, dec_counters)
    assert restored == data
    dec_counters.bytes_out = len(restored)
    out["byte-aligned (lz4)"] = (
        len(data) / len(lz4_payload),
        DEFAULT_MACHINE.decompress_speed("lz4", dec_counters) / 1e6,
    )
    # Entropy-coded (zstd-style) encoding of the identical parse.
    enc_counters = StageCounters(bytes_in=len(data))
    zstd_payload = zblocks.encode_block(data, 0, sequences, enc_counters)
    dec_counters = StageCounters(bytes_in=len(zstd_payload))
    restored = zblocks.decode_block(zstd_payload, dec_counters)
    assert restored == data
    dec_counters.bytes_out = len(restored)
    out["huffman+fse (zstd)"] = (
        len(data) / len(zstd_payload),
        DEFAULT_MACHINE.decompress_speed("zstd", dec_counters) / 1e6,
    )
    return out


def test_ablation_entropy(benchmark, comparison, figure_output):
    rows = [
        [name, f"{ratio:.3f}", f"{speed:.0f}"]
        for name, (ratio, speed) in comparison.items()
    ]
    figure_output(
        "ablation_entropy",
        format_table(
            ["entropy stage", "ratio", "decomp MB/s"],
            rows,
            title="Ablation: entropy stage on an identical parse",
        ),
    )
    lz4_ratio, lz4_speed = comparison["byte-aligned (lz4)"]
    zstd_ratio, zstd_speed = comparison["huffman+fse (zstd)"]
    # The paper's trade-off: entropy coding buys ratio, costs decode speed.
    assert zstd_ratio > 1.1 * lz4_ratio
    assert lz4_speed > 1.5 * zstd_speed

    data = generate_text(8192, seed=181)
    params = MatchFinderParams(strategy="lazy", search_depth=16, lazy_steps=1)
    sequences = finder_for_strategy("lazy").parse(data, 0, params)
    benchmark(
        lambda: zblocks.encode_block(data, 0, sequences, StageCounters())
    )

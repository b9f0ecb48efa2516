"""Damaged KV blocks through the fused zstd decode: corrupt or equal, and bounded.

The read path of the KV store is one block decode per point read, so the
blocks it reads are the ones swept here: every stored block of a zstd-1 SST
over generated KV records (16 KiB each, Huffman literals and custom FSE
tables), truncated at seeded cuts and with seeded single-bit flips. A
damaged block either decodes to the clean bytes or raises
``CorruptDataError``: no other exception type leaves ``decompress``. And a
failed decode does bounded work, read from the ``StageCounters`` it was
filling when it failed: the counts a block states up front (sequences,
literal bytes, entropy symbols) never pass the clean decode's, and a flipped
match-length bit, which the decoder can only catch at the content checksum,
copies less than one block limit.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.codecs import base, get_codec
from repro.codecs.base import CorruptDataError
from repro.codecs.zstd import params as zparams
from repro.corpus import generate_kv_records
from repro.services.kvstore import SSTable

CUTS_PER_BLOCK = 12
FLIPS_PER_BLOCK = 24
STATED_UP_FRONT = ("sequences_decoded", "literal_bytes_copied", "entropy_symbols_decoded")


@pytest.fixture(scope="module")
def stored_blocks():
    records = sorted(generate_kv_records(1950, seed=22))
    table = SSTable.build(records, codec=get_codec("zstd"), level=1, block_size=16384)
    assert table.block_count >= 30
    image = table.to_bytes()
    return [image[offset : offset + length] for offset, length in table.block_spans]


def _damaged(stored, rng):
    for cut in sorted(rng.sample(range(len(stored)), CUTS_PER_BLOCK)):
        yield stored[:cut]
    for __ in range(FLIPS_PER_BLOCK):
        flipped = bytearray(stored)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        yield bytes(flipped)


def test_damaged_kv_blocks_are_corrupt_or_equal_and_bounded(stored_blocks, monkeypatch):
    # `decompress` makes the counters it fills; keep the last one made so a
    # failed decode's can be read after the exception
    made = []
    counters_class = base.StageCounters

    def recorded(*args, **kwargs):
        made.append(counters_class(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(base, "StageCounters", recorded)
    zstd = get_codec("zstd")
    rng = random.Random(22)
    failed = decoded = 0
    for stored in stored_blocks:
        clean = zstd.decompress(stored)
        for payload in _damaged(stored, rng):
            try:
                result = zstd.decompress(payload)
            except CorruptDataError:
                failed += 1
                counters = made[-1]
                for name in STATED_UP_FRONT:
                    assert getattr(counters, name) <= getattr(clean.counters, name), name
                assert counters.match_bytes_copied < zparams.MAX_BLOCK_SIZE
            else:
                decoded += 1
                assert result.data == clean.data
                assert dataclasses.asdict(result.counters) == dataclasses.asdict(
                    clean.counters
                )
    assert failed > 30 * len(stored_blocks)
    assert decoded > 0  # a flip in an unused header bit

"""Key-value records for the KVSTORE1 (RocksDB-style) substrate."""

from __future__ import annotations

from typing import List, Tuple

from repro.corpus.distributions import SeededSampler

_COLUMN_FAMILIES = ["default", "meta", "index"]
#: key ids are drawn from [0, _KEY_SPACE)
_KEY_SPACE = 10_000_000


def generate_kv_records(count: int, seed: int = 0) -> List[Tuple[bytes, bytes]]:
    """``count`` sorted key-value pairs with ZippyDB-like shapes.

    Keys share long common prefixes (service/shard/entity), values mix a
    small binary header with semi-structured payload -- the mix that makes
    SST block compression worthwhile but block-size-sensitive (Fig. 13).
    """
    sampler = SeededSampler(seed)
    keys = sorted(int(v) for v in sampler.integers(0, _KEY_SPACE, count))
    records: List[Tuple[bytes, bytes]] = []
    for sequence, key_id in enumerate(keys):
        family = _COLUMN_FAMILIES[key_id % len(_COLUMN_FAMILIES)]
        key = f"svc7/shard{key_id % 64:03d}/{family}/{key_id:012d}".encode()
        header = (key_id & 0xFFFFFFFF).to_bytes(4, "little") + (
            sequence & 0xFFFF
        ).to_bytes(2, "little")
        value_len = int(sampler.uniform(40, 400))
        fields = (
            b"state=active;owner=%d;region=%s;"
            % (key_id % 1000, [b"use", b"usw", b"eu", b"apac"][key_id % 4])
        )
        filler = fields * (value_len // max(1, len(fields)) + 1)
        records.append((key, header + filler[:value_len]))
    # Byte-order of the rendered keys differs from numeric order (shard and
    # column family interleave); SSTs need byte-sorted keys.
    records.sort(key=lambda kv: kv[0])
    return records

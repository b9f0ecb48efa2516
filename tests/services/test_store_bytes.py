"""Every byte a store leaves on its storage, pinned.

A fixed workload -- puts through several flushes and compactions, a reopen,
then overwrites and deletes through more flushes and a compaction over the
reopened tables, ending with an unflushed WAL tail -- and the sha256 of
every file ``SimStorage.list()`` returns afterwards: SSTs, WAL segments and
manifests. A change to how a table, the log or the manifest is held in
memory keeps this green; a change to what is written does not.
"""

from __future__ import annotations

import hashlib

from repro.corpus import generate_kv_records
from repro.services.kvstore import KVStore, SimStorage

_KWARGS = dict(memtable_bytes=1 << 13, level0_table_limit=2)

PINNED = {
    "manifest-000028.mf": "007c7e3b117ed3361a97df62cac3912e02c12eaf7a3dd4a8524fa21344416c90",
    "sst-000015.sst": "11214765ae5aa1b7852e48a305a100b2105a86cc6adb139fa9514862c44375ee",
    "sst-000025.sst": "cf062c44a7dad983ce1c7987dffcd7c01bba94ad285e57bc784eb7470b260596",
    "sst-000026.sst": "4cf8b6be12aecbda936eee339146f53af4389a6c47bced82cbf4f6eeacc7a5e4",
    "sst-000027.sst": "5d94e28692c9d75fe44415d51ffa6874196bda40826b1ccd7640e4839ef815b9",
    "wal-000018.log": "2afcdd28baf523d50ee1498ae34a9231b8f4aafd8bba7b07ffd97bab76c5a784",
}


def _run() -> SimStorage:
    records = generate_kv_records(400, seed=7)
    storage = SimStorage(seed=7)
    store = KVStore.open(storage, **_KWARGS)
    for key, value in records:
        store.put(key, value)
    assert store.stats.flushes > 0 and store.stats.compactions > 0
    reopened = KVStore.open(storage, **_KWARGS)
    for key, value in records[:120]:
        reopened.put(key, value[::-1])
    for key, __ in records[120:160]:
        reopened.delete(key)
    reopened.flush()
    assert reopened.stats.compactions > 0
    for key, value in records[160:170]:
        reopened.put(key, value[::-1])
    return storage


def test_every_stored_file_matches_its_pin():
    storage = _run()
    digests = {
        name: hashlib.sha256(storage.read(name)).hexdigest()
        for name in storage.list()
    }
    assert digests == PINNED


if __name__ == "__main__":
    storage = _run()
    for name in storage.list():
        print(f"    {name!r}: {hashlib.sha256(storage.read(name)).hexdigest()!r},")

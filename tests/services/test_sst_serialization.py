"""SST file-image serialization tests."""

import random

import pytest

from repro.codecs import get_codec
from repro.codecs.base import CorruptDataError
from repro.codecs.varint import write_uvarint
from repro.corpus import generate_kv_records
from repro.services.kvstore import BlockCache, KVStore, SimStorage, SSTable


@pytest.fixture(scope="module")
def entries():
    return generate_kv_records(400, seed=91)


@pytest.fixture(scope="module")
def original(entries):
    return SSTable.build(entries, level=1, block_size=2048)


class TestSSTSerialization:
    def test_roundtrip_preserves_reads(self, entries, original):
        image = original.to_bytes()
        loaded = SSTable.from_bytes(image)
        for key, value in entries[::23]:
            found, got, __ = loaded.get(key)
            assert found and got == value

    def test_roundtrip_preserves_metadata(self, original):
        loaded = SSTable.from_bytes(original.to_bytes())
        assert loaded.codec_name == original.codec_name
        assert loaded.level == original.level
        assert loaded.entry_count == original.entry_count
        assert loaded.block_count == original.block_count

    def test_scan_equals_original(self, entries, original):
        loaded = SSTable.from_bytes(original.to_bytes())
        assert list(loaded.scan()) == entries

    def test_negative_level_roundtrip(self, entries):
        table = SSTable.build(entries, codec=get_codec("zstd"), level=-3)
        loaded = SSTable.from_bytes(table.to_bytes())
        assert loaded.level == -3

    def test_lz4_sst_roundtrip(self, entries):
        table = SSTable.build(entries, codec=get_codec("lz4"), level=1)
        loaded = SSTable.from_bytes(table.to_bytes())
        found, got, __ = loaded.get(entries[100][0])
        assert found and got == entries[100][1]

    def test_bloom_rebuilt_on_request(self, entries, original):
        loaded = SSTable.from_bytes(original.to_bytes(), rebuild_bloom=True)
        found, __, decode_seconds = loaded.get(b"zzz/not/present")
        assert not found
        assert loaded.stats.bloom_skips >= 1
        assert decode_seconds == 0.0

    def test_no_bloom_by_default(self, original):
        loaded = SSTable.from_bytes(original.to_bytes())
        loaded.get(b"zzz/not/present")
        assert loaded.stats.bloom_skips == 0

    def test_block_cache_attached_on_load(self, entries, original):
        cache = BlockCache(1 << 20)
        loaded = SSTable.from_bytes(original.to_bytes(), block_cache=cache)
        key = entries[50][0]
        loaded.get(key)
        loaded.get(key)
        assert loaded.stats.cache_hits == 1

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptDataError):
            SSTable.from_bytes(b"NOPE" + b"\x00" * 30)

    def test_truncated_rejected(self, original):
        image = original.to_bytes()
        with pytest.raises(CorruptDataError):
            SSTable.from_bytes(image[: len(image) // 2])

    def test_disk_roundtrip(self, entries, original, tmp_path):
        path = tmp_path / "table.sst"
        path.write_bytes(original.to_bytes())
        loaded = SSTable.from_bytes(path.read_bytes())
        assert list(loaded.scan()) == entries


def _loads_or_is_corrupt(image):
    """True when the image loads (bloom rebuilt, as recovery does), False
    when it is rejected as corrupt; any other exception propagates."""
    try:
        SSTable.from_bytes(image, rebuild_bloom=True)
    except CorruptDataError:
        return False
    return True


class TestDamagedImage:
    """A damaged file image loads or is a ``CorruptDataError``: never an
    ``IndexError``, a ``UnicodeDecodeError`` or an allocation sized by a
    number the file states."""

    def test_every_prefix_is_rejected_as_corrupt(self, original):
        image = original.to_bytes()
        assert not any(_loads_or_is_corrupt(image[:cut]) for cut in range(len(image)))
        assert _loads_or_is_corrupt(image)

    def test_single_byte_flips_load_or_are_corrupt(self, original):
        image = original.to_bytes()
        rng = random.Random(22)
        header = image.index(original.block_bytes(0))
        outcomes = set()
        for flip in range(200):
            damaged = bytearray(image)
            # a quarter of the flips land in the header and first key
            position = rng.randrange(header if flip % 4 == 0 else len(image))
            damaged[position] ^= 1 << rng.randrange(8)
            outcomes.add(_loads_or_is_corrupt(bytes(damaged)))
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "image",
        [
            b"RSST",
            b"RSST\x09zstd",
            b"RSST\x04\xff\xfe\xfd\xfc\x41\x00\x00",
            b"RSST\x04zstx\x41\x00\x00",
            b"RSST\x04zstd\x41\x01\x01\x7fshort\x00",
        ],
        ids=["magic-only", "name-past-end", "name-not-utf8", "unknown-codec", "key-past-end"],
    )
    def test_damaged_headers_are_corrupt(self, image):
        with pytest.raises(CorruptDataError):
            SSTable.from_bytes(image, rebuild_bloom=True)

    def test_bloom_is_not_sized_by_the_stated_entry_count(self):
        image = bytearray(b"RSST\x04zstd\x41")
        write_uvarint(image, 1 << 40)  # entries the file claims, in no block
        write_uvarint(image, 0)
        loaded = SSTable.from_bytes(bytes(image), rebuild_bloom=True)
        assert loaded.block_count == 0
        assert loaded.get(b"any")[0] is False

    def test_rebuilt_bloom_has_the_built_table_bits(self, original):
        loaded = SSTable.from_bytes(original.to_bytes(), rebuild_bloom=True)
        assert loaded._bloom._bits == original._bloom._bits
        assert loaded._bloom.probes == original._bloom.probes

    def test_open_surfaces_a_damaged_sst_as_corrupt(self, entries):
        storage = SimStorage(3)
        db = KVStore.open(storage, block_size=2048)
        for key, value in entries:
            db.put(key, value)
        db.flush()
        (name,) = storage.list("sst-")
        image = storage.read(name)
        KVStore.open(storage, block_size=2048)
        for damaged in (image[:4], image[:5] + b"\xff" + image[6:], image[: len(image) // 2]):
            storage.write_file(name, damaged)
            with pytest.raises(CorruptDataError):
                KVStore.open(storage, block_size=2048)

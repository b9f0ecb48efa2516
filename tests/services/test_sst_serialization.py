"""SST file-image serialization tests."""

import random
import struct

import pytest

from repro.codecs import get_codec
from repro.codecs.base import CorruptDataError
from repro.codecs.checksum import crc32
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

    def test_bloom_loaded_from_the_footer(self, entries, original):
        loaded = SSTable.from_bytes(original.to_bytes())
        found, __, decode_seconds = loaded.get(b"zzz/not/present")
        assert not found
        assert loaded.stats.bloom_skips >= 1
        assert decode_seconds == 0.0
        assert loaded.stats.blocks_read == 0

    def test_table_built_without_a_bloom_loads_without_one(self, entries):
        table = SSTable.build(entries, block_size=2048, bloom_bits_per_key=0)
        loaded = SSTable.from_bytes(table.to_bytes())
        assert not loaded.has_filter and not loaded.filter_dropped
        loaded.get(b"zzz/not/present")
        assert loaded.stats.bloom_skips == 0

    def test_raw_size_comes_from_the_footer(self, original):
        loaded = SSTable.from_bytes(original.to_bytes())
        assert loaded.stats.raw_bytes == original.stats.raw_bytes > 0
        assert loaded.stats.blocks_read == 0

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
    """True when the image loads, False when it is rejected as corrupt; any
    other exception propagates."""
    try:
        SSTable.from_bytes(image)
    except CorruptDataError:
        return False
    return True


def _framed(footer):
    """``footer`` in the file's frame, with the checksum it should have."""
    return struct.pack("<II", len(footer), crc32(footer)) + bytes(footer)


def _footer(raw_bytes, bit_count, probes, bits=b""):
    footer = bytearray()
    for value in (raw_bytes, bit_count, probes):
        write_uvarint(footer, value)
    return _framed(footer + bits)


#: a zstd table at level 1 (biased by 64) with no entries and no blocks
_EMPTY_TABLE = b"RSS2\x04zstd\x41\x00\x00"


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
        header = original.block_spans[0][0]
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
            b"RSS2",
            b"RSS2\x09zstd",
            b"RSS2\x04\xff\xfe\xfd\xfc\x41\x00\x00",
            b"RSS2\x04zstx\x41\x00\x00",
            b"RSS2\x04zstd\x41\x01\x01\x7fshort\x00",
            b"RSST\x04zstd\x41\x00\x00" + _footer(0, 0, 0),
            _EMPTY_TABLE,
            _EMPTY_TABLE + _framed(b""),
        ],
        ids=[
            "magic-only",
            "name-past-end",
            "name-not-utf8",
            "unknown-codec",
            "key-past-end",
            "footerless-format-magic",
            "no-footer",
            "empty-footer",
        ],
    )
    def test_damaged_headers_are_corrupt(self, image):
        with pytest.raises(CorruptDataError):
            SSTable.from_bytes(image)

    def test_bloom_is_not_sized_by_the_stated_entry_count(self):
        image = bytearray(b"RSS2\x04zstd\x41")
        write_uvarint(image, 1 << 40)  # entries the file claims, in no block
        write_uvarint(image, 0)
        loaded = SSTable.from_bytes(bytes(image) + _footer(0, 0, 0))
        assert loaded.block_count == 0
        assert not loaded.has_filter
        assert loaded.get(b"any")[0] is False

    def test_loaded_bloom_has_the_built_table_bits(self, original):
        loaded = SSTable.from_bytes(original.to_bytes())
        assert loaded._bloom.bits == original._bloom.bits
        assert loaded._bloom.bit_count == original._bloom.bit_count
        assert loaded._bloom.probes == original._bloom.probes

    @pytest.mark.parametrize(
        "footer",
        [
            _footer(0, 64, 7, b"\xff" * 7),
            _footer(0, 64, 7, b"\xff" * 9),
            _footer(0, 1 << 40, 7, b"\xff" * 8),
            _footer(0, 64, 0, b"\xff" * 8),
            _footer(0, 64, 17, b"\xff" * 8),
            _footer(0, 0, 0, b"\xff"),
            _framed(b"\x00\x40"),
        ],
        ids=[
            "bits-short",
            "bits-long",
            "bit-count-uncovered",
            "probes-0",
            "probes-17",
            "bits-without-a-count",
            "fields-missing",
        ],
    )
    def test_checksummed_footer_that_contradicts_itself_is_corrupt(self, footer):
        SSTable.from_bytes(_EMPTY_TABLE + _footer(0, 64, 7, b"\xff" * 8))
        with pytest.raises(CorruptDataError):
            SSTable.from_bytes(_EMPTY_TABLE + footer)

    def test_footer_byte_flips_are_corrupt_or_drop_the_filter(self, entries):
        """The filter is never trusted past its checksum, and a table that
        lost it answers every present key: no flip makes a false negative."""
        present = entries[:60]
        table = SSTable.build(present, block_size=2048)
        image = table.to_bytes()
        bloom = table._bloom
        footer = _footer(table.stats.raw_bytes, bloom.bit_count, bloom.probes, bloom.bits)
        assert image.endswith(footer)
        footer_at = len(image) - len(footer)
        rng = random.Random(24)
        outcomes = set()
        for position in range(footer_at, len(image)):
            damaged = bytearray(image)
            damaged[position] ^= 1 << rng.randrange(8)
            try:
                loaded = SSTable.from_bytes(bytes(damaged), block_cache=BlockCache(1 << 20))
            except CorruptDataError:
                outcomes.add("corrupt")
                continue
            outcomes.add("dropped")
            assert loaded.filter_dropped and not loaded.has_filter
            for key, value in present:
                assert loaded.get(key)[:2] == (True, value)
            assert loaded.stats.bloom_skips == 0
        assert outcomes == {"corrupt", "dropped"}

    def test_open_counts_a_dropped_filter_and_still_serves_every_key(self, entries):
        storage = SimStorage(3)
        db = KVStore.open(storage, block_size=2048)
        for key, value in entries:
            db.put(key, value)
        db.flush()
        (name,) = storage.list("sst-")
        image = bytearray(storage.read(name))
        image[-1] ^= 0x10  # inside the filter bits
        storage.write_file(name, bytes(image))
        reopened = KVStore.open(storage, block_size=2048)
        report = reopened.last_recovery
        assert (report.filters_loaded, report.filters_dropped) == (0, 1)
        assert reopened.stats.blocks_decompressed == 0
        for key, value in entries[::7]:
            assert reopened.get(key) == value
        assert reopened.get(b"zzz/not/present") is None
        assert reopened.bloom_skips == 0

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

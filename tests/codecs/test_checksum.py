"""Checksum tests against known vectors and the stdlib oracle."""

import zlib as stdlib_zlib

import pytest
from hypothesis import given, strategies as st

from repro.codecs.checksum import (
    _LANE_PREP_CHUNK,
    _LANE_PREP_MIN_BYTES,
    adler32,
    crc32,
    xxh32,
    xxh64,
)

_SPAM = b"Nobody inspects the spammish repetition"


def _rotl(value, count, width):
    mask = (1 << width) - 1
    return ((value << count) | (value >> (width - count))) & mask


def _reference_lanes(data, seed, width, prime1, prime2, rotation):
    """Per-lane reference for the stripe loop both XXH variants share:
    four accumulators, one little-endian lane each per stripe, one round
    (add lane * prime2, rotate, multiply by prime1) per lane per stripe."""
    mask = (1 << width) - 1
    lane_bytes = width // 8
    accs = [
        (seed + prime1 + prime2) & mask,
        (seed + prime2) & mask,
        seed & mask,
        (seed - prime1) & mask,
    ]
    for pos in range(0, len(data) - 4 * lane_bytes + 1, 4 * lane_bytes):
        for k in range(4):
            start = pos + k * lane_bytes
            lane = int.from_bytes(data[start : start + lane_bytes], "little")
            accs[k] = (accs[k] + lane * prime2) & mask
            accs[k] = (_rotl(accs[k], rotation, width) * prime1) & mask
    return accs


def _reference_xxh32(data, seed):
    p1, p2, p3, p4, p5 = 0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F, 0x165667B1
    mask = 0xFFFFFFFF
    if len(data) >= 16:
        a = _reference_lanes(data, seed, 32, p1, p2, 13)
        acc = _rotl(a[0], 1, 32) + _rotl(a[1], 7, 32) + _rotl(a[2], 12, 32) + _rotl(a[3], 18, 32)
    else:
        acc = seed + p5
    acc = (acc + len(data)) & mask
    pos = len(data) & ~15
    while pos + 4 <= len(data):
        acc = (acc + int.from_bytes(data[pos : pos + 4], "little") * p3) & mask
        acc = (_rotl(acc, 17, 32) * p4) & mask
        pos += 4
    for byte in data[pos:]:
        acc = (_rotl((acc + byte * p5) & mask, 11, 32) * p1) & mask
    acc = ((acc ^ (acc >> 15)) * p2) & mask
    acc = ((acc ^ (acc >> 13)) * p3) & mask
    return acc ^ (acc >> 16)


def _reference_xxh64(data, seed):
    p1, p2, p3 = 0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9
    p4, p5 = 0x85EBCA77C2B2AE63, 0x27D4EB2F165667C5
    mask = 0xFFFFFFFFFFFFFFFF

    def round_(acc, lane):
        return (_rotl((acc + lane * p2) & mask, 31, 64) * p1) & mask

    if len(data) >= 32:
        a = _reference_lanes(data, seed, 64, p1, p2, 31)
        acc = (_rotl(a[0], 1, 64) + _rotl(a[1], 7, 64) + _rotl(a[2], 12, 64) + _rotl(a[3], 18, 64)) & mask
        for lane_acc in a:
            acc = ((acc ^ round_(0, lane_acc)) * p1 + p4) & mask
    else:
        acc = (seed + p5) & mask
    acc = (acc + len(data)) & mask
    pos = len(data) & ~31
    while pos + 8 <= len(data):
        acc ^= round_(0, int.from_bytes(data[pos : pos + 8], "little"))
        acc = (_rotl(acc, 27, 64) * p1 + p4) & mask
        pos += 8
    if pos + 4 <= len(data):
        acc ^= (int.from_bytes(data[pos : pos + 4], "little") * p1) & mask
        acc = (_rotl(acc, 23, 64) * p2 + p3) & mask
        pos += 4
    for byte in data[pos:]:
        acc = (_rotl(acc ^ ((byte * p5) & mask), 11, 64) * p1) & mask
    acc = ((acc ^ (acc >> 33)) * p2) & mask
    acc = ((acc ^ (acc >> 29)) * p3) & mask
    return acc ^ (acc >> 32)


def _stripe_edge_lengths(stripe):
    """``k * stripe + {-1, 0, 1}`` for k up to 20, and one long buffer.
    The stripe loop starts at one whole stripe: the only length at which
    either digest changes path."""
    lengths = {k * stripe + d for k in range(21) for d in (-1, 0, 1)}
    lengths.add(5000)
    return sorted(length for length in lengths if length >= 0)


def _lane_prep_edge_lengths():
    """Lengths around the two places ``xxh32`` changes what it does to a
    stripe: the length from which lane inputs are prepared in one numpy
    pass, and the end of one prepared chunk; plus whole KV blocks and a
    buffer of several chunks."""
    lengths = {16384, 16401, 131072}
    for edge in (_LANE_PREP_MIN_BYTES, _LANE_PREP_CHUNK):
        lengths.update(edge + stripe + byte for stripe in (-16, 0, 16) for byte in (-1, 0, 1))
    return sorted(lengths)


def _patterned(length):
    return bytes((i * 131 + (i >> 3) * 17 + 0x5A) & 0xFF for i in range(length))


def _odd_offset_view(data):
    """``data`` as a memoryview that starts one byte into its buffer, so
    its 32-bit words are unaligned."""
    return memoryview(b"\xa5" + data)[1:]


class TestXXH32:
    # Known-answer vectors from the reference xxHash implementation.
    def test_empty(self):
        assert xxh32(b"") == 0x02CC5D05

    def test_empty_with_seed(self):
        assert xxh32(b"", seed=1) == 0x0B2CB792

    def test_hello_world(self):
        assert xxh32(b"Hello World") == 0xB1FD16EE

    def test_single_byte(self):
        assert xxh32(b"a") == 0x550D7456

    def test_public_vector_over_two_stripes(self):
        # 39 bytes: two four-lane stripes, one 4-byte step, three tail bytes
        assert xxh32(_SPAM) == 0xE2293B2F

    @pytest.mark.parametrize("seed", [0, 1, 0xFFFFFFFF])
    def test_matches_per_lane_reference_at_stripe_edges(self, seed):
        for length in _stripe_edge_lengths(16):
            data = _patterned(length)
            assert xxh32(data, seed) == _reference_xxh32(data, seed), length

    @pytest.mark.parametrize("seed", [0, 1, 0xFFFFFFFF])
    def test_matches_per_lane_reference_around_the_lane_prep_edges(self, seed):
        # both stripe loops answer to the same reference, whatever buffer
        # type hands them the bytes
        for length in _lane_prep_edge_lengths():
            data = _patterned(length)
            expected = _reference_xxh32(data, seed)
            for kind in (bytes, bytearray, memoryview, _odd_offset_view):
                assert xxh32(kind(data), seed) == expected, (length, kind.__name__)

    def test_all_ones_words_do_not_carry_between_lanes(self):
        # the largest lane inputs and accumulators the packed loop can meet
        for length in (_LANE_PREP_MIN_BYTES - 16, _LANE_PREP_MIN_BYTES, 4096):
            data = b"\xff" * length
            assert xxh32(data, 0xFFFFFFFF) == _reference_xxh32(data, 0xFFFFFFFF)

    def test_accepts_any_bytes_like_input(self):
        data = _patterned(1000)
        assert xxh32(bytearray(data)) == xxh32(memoryview(data)) == xxh32(data)
        assert xxh32(_odd_offset_view(data)) == xxh32(data)

    def test_exactly_16_bytes_uses_lane_path(self):
        digest = xxh32(b"0123456789abcdef")
        assert 0 <= digest <= 0xFFFFFFFF
        assert digest != xxh32(b"0123456789abcdeF")

    def test_long_input_differs_from_prefix(self):
        data = b"x" * 1000
        assert xxh32(data) != xxh32(data[:-1])

    def test_seed_changes_digest(self):
        assert xxh32(b"payload", seed=0) != xxh32(b"payload", seed=42)

    def test_deterministic(self):
        assert xxh32(b"same input") == xxh32(b"same input")


class TestXXH64Stripes:
    def test_public_vector_over_one_stripe(self):
        assert xxh64(_SPAM) == 0xFBCEA83C8A378BF1

    @pytest.mark.parametrize("seed", [0, 1, 0xFFFFFFFF])
    def test_matches_per_lane_reference_at_stripe_edges(self, seed):
        for length in _stripe_edge_lengths(32):
            data = _patterned(length)
            assert xxh64(data, seed) == _reference_xxh64(data, seed), length


#: lengths straddling Adler-32's 5552-byte reduction block
_ADLER_EDGES = [5551, 5552, 5553, 2 * 5552 - 1, 2 * 5552, 2 * 5552 + 1]


class TestAdler32:
    def test_empty_is_one(self):
        assert adler32(b"") == 1

    @pytest.mark.parametrize("length", _ADLER_EDGES)
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_block_edges_and_buffer_types(self, length, kind):
        data = _patterned(length)
        assert adler32(kind(data)) == stdlib_zlib.adler32(data)
        # all-0xFF input maximises both running sums inside a block
        assert adler32(kind(b"\xff" * length)) == stdlib_zlib.adler32(b"\xff" * length)
        running = adler32(kind(data[:5000]))
        assert adler32(kind(data[5000:]), running) == stdlib_zlib.adler32(data)

    @pytest.mark.parametrize(
        "data",
        [b"a", b"hello world", b"x" * 6000, bytes(range(256)) * 40],
    )
    def test_matches_stdlib(self, data):
        assert adler32(data) == stdlib_zlib.adler32(data)

    def test_incremental_matches_oneshot(self):
        data = b"abcdefgh" * 100
        running = adler32(data[:300])
        assert adler32(data[300:], running) == adler32(data)


class TestCRC32:
    def test_empty_is_zero(self):
        assert crc32(b"") == 0

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 8, 9] + _ADLER_EDGES)
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_word_edges_and_buffer_types(self, length, kind):
        # four bytes fold per step, so every remainder of 4 is exercised
        data = _patterned(length)
        assert crc32(kind(data)) == stdlib_zlib.crc32(data)
        split = length // 3
        running = crc32(kind(data[:split]))
        assert crc32(kind(data[split:]), running) == stdlib_zlib.crc32(data)

    def test_known_vector(self):
        # "123456789" -> 0xCBF43926 (the classic CRC-32 check value)
        assert crc32(b"123456789") == 0xCBF43926

    @pytest.mark.parametrize(
        "data", [b"a", b"hello world", b"\x00" * 1000, bytes(range(256))]
    )
    def test_matches_stdlib(self, data):
        assert crc32(data) == stdlib_zlib.crc32(data)

    def test_incremental_matches_oneshot(self):
        data = b"streaming data" * 64
        running = crc32(data[:100])
        assert crc32(data[100:], running) == crc32(data)


@given(st.binary(max_size=2048))
def test_adler_and_crc_match_stdlib_property(data):
    assert adler32(data) == stdlib_zlib.adler32(data)
    assert crc32(data) == stdlib_zlib.crc32(data)

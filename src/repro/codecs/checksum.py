"""Checksums used by the codec frame formats, implemented from scratch.

- XXH32: the non-cryptographic hash used by LZ4 and Zstandard frames (and
  by dictionary identifiers).
- Adler-32: the zlib container checksum.
- CRC-32: the gzip container checksum.
"""

from __future__ import annotations

import struct
from itertools import accumulate

import numpy as np

_MASK32 = 0xFFFFFFFF

_XXH_PRIME1 = 0x9E3779B1
_XXH_PRIME2 = 0x85EBCA77
_XXH_PRIME3 = 0xC2B2AE3D
_XXH_PRIME4 = 0x27D4EB2F
_XXH_PRIME5 = 0x165667B1

# XXH32's four accumulators ride in one Python int, one 64-bit slot each:
# a slot is wide enough for a 32x32-bit product, so one big-int operation
# serves all four lanes and nothing carries from one lane into the next.
# A 16-byte stripe read as an integer has its lanes 32 bits apart;
# `stripe | stripe << 96`, masked to the slots' low words, moves them
# 64 bits apart in the order lane 1, 3, 2, 4 -- the slot order throughout.
_SLOTS = 1 | 1 << 64 | 1 << 128 | 1 << 192
_SLOT_LOW32 = _MASK32 * _SLOTS
#: rotl13 of every slot's low word: the bits a left shift keeps, and the
#: bits that wrap around to the bottom
_ROTL13_KEPT = 0xFFFFE000 * _SLOTS
_ROTL13_WRAPPED = 0x00001FFF * _SLOTS

#: Input length from which the stripes' lane inputs are prepared in one
#: numpy pass. Below it the pass costs more than the big-int operations it
#: saves (one call is ~4 us; the two loops break even near 400 bytes).
_LANE_PREP_MIN_BYTES = 512
#: bytes prepared per pass, so the prepared copy (twice its input) and
#: numpy's temporaries stay small whatever the input's length
_LANE_PREP_CHUNK = 1 << 16
_SLOT_ORDER = (0, 2, 1, 3)


def _lane_inputs(data: bytes, start: int, stop: int) -> bytes:
    """What each stripe of ``data[start:stop]`` adds to the accumulators:
    ``word * PRIME2`` modulo 2**32 per lane, laid out in slot order, 32
    bytes a stripe. A round is ``rotl13(acc + word * PRIME2) * PRIME1``
    modulo 2**32 and a carry only moves upwards, so the product's low word
    is all of it that reaches the rotate: the products depend on the
    buffer alone and one vectorised multiply serves every stripe."""
    words = np.frombuffer(data, dtype="<u4", count=(stop - start) >> 2, offset=start)
    products = (words * np.uint32(_XXH_PRIME2)).reshape(-1, 4)
    return products[:, _SLOT_ORDER].astype("<u8").tobytes()


def xxh32(data: bytes, seed: int = 0) -> int:
    """XXH32 digest of ``data`` with the given seed."""
    length = len(data)
    pos = 0
    if length >= 16:
        lanes = (
            (seed + _XXH_PRIME1 + _XXH_PRIME2) & _MASK32
            | (seed & _MASK32) << 64
            | ((seed + _XXH_PRIME2) & _MASK32) << 128
            | ((seed - _XXH_PRIME1) & _MASK32) << 192
        )
        pos = length & ~15
        if length < _LANE_PREP_MIN_BYTES:
            for offset in range(0, pos, 16):
                stripe = int.from_bytes(data[offset : offset + 16], "little")
                # one round on all four lanes: add lane * PRIME2, rotl13, * PRIME1
                lanes += ((stripe | stripe << 96) & _SLOT_LOW32) * _XXH_PRIME2
                lanes = (
                    ((lanes << 13) & _ROTL13_KEPT | (lanes >> 19) & _ROTL13_WRAPPED)
                    * _XXH_PRIME1
                ) & _SLOT_LOW32
        else:
            from_bytes = int.from_bytes
            for start in range(0, pos, _LANE_PREP_CHUNK):
                prepared = _lane_inputs(data, start, min(start + _LANE_PREP_CHUNK, pos))
                # The same round. A slot holds rotl13(..) * PRIME1 < 2**64
                # - 2**32 unmasked, so adding a 32-bit input cannot carry
                # into the next slot, and the rotate masks keep only bits
                # that came from the slot's own low word.
                for (stripe,) in struct.iter_unpack("32s", prepared):
                    lanes += from_bytes(stripe, "little")
                    lanes = (
                        (lanes << 13) & _ROTL13_KEPT | (lanes >> 19) & _ROTL13_WRAPPED
                    ) * _XXH_PRIME1
            lanes &= _SLOT_LOW32
        acc1 = lanes & _MASK32
        acc3 = (lanes >> 64) & _MASK32
        acc2 = (lanes >> 128) & _MASK32
        acc4 = lanes >> 192
        # rotl 1, 7, 12, 18: what a left shift pushes past bit 31 is a
        # multiple of 2**32, so one mask after the sum wraps all four
        acc = (
            (acc1 << 1 | acc1 >> 31)
            + (acc2 << 7 | acc2 >> 25)
            + (acc3 << 12 | acc3 >> 20)
            + (acc4 << 18 | acc4 >> 14)
        ) & _MASK32
    else:
        acc = (seed + _XXH_PRIME5) & _MASK32

    acc = (acc + length) & _MASK32
    while pos + 4 <= length:
        lane = int.from_bytes(data[pos : pos + 4], "little")
        acc = (acc + lane * _XXH_PRIME3) & _MASK32
        acc = ((acc << 17 | acc >> 15) & _MASK32) * _XXH_PRIME4 & _MASK32
        pos += 4
    while pos < length:
        acc = (acc + data[pos] * _XXH_PRIME5) & _MASK32
        acc = ((acc << 11 | acc >> 21) & _MASK32) * _XXH_PRIME1 & _MASK32
        pos += 1

    acc ^= acc >> 15
    acc = (acc * _XXH_PRIME2) & _MASK32
    acc ^= acc >> 13
    acc = (acc * _XXH_PRIME3) & _MASK32
    acc ^= acc >> 16
    return acc


_ADLER_MOD = 65521


def adler32(data: bytes, value: int = 1) -> int:
    """Adler-32 checksum, continuing from ``value`` (1 for a fresh stream)."""
    low = value & 0xFFFF
    high = (value >> 16) & 0xFFFF
    # Process in chunks small enough that the sums stay bounded between
    # modulo reductions (the classic 5552-byte block trick).
    for pos in range(0, len(data), 5552):
        chunk = data[pos : pos + 5552]
        # `high` gains `low` once per byte, so it grows by the starting
        # `low` per byte plus the sum of the chunk's running byte sums.
        high = (high + len(chunk) * low + sum(accumulate(chunk))) % _ADLER_MOD
        low = (low + sum(chunk)) % _ADLER_MOD
    return (high << 16) | low


def _build_crc32_tables() -> tuple:
    """Slicing-by-4 tables: ``tables[k][b]`` is the CRC of byte ``b``
    followed by ``k`` zero bytes, so four input bytes fold in one step."""
    first = []
    for i in range(256):
        crc = i
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320
            else:
                crc >>= 1
        first.append(crc)
    tables = [first]
    for _ in range(3):
        last = tables[-1]
        tables.append([(crc >> 8) ^ first[crc & 0xFF] for crc in last])
    return tuple(tuple(table) for table in tables)


_CRC32_TABLES = _build_crc32_tables()


def crc32(data: bytes, value: int = 0) -> int:
    """CRC-32 (IEEE 802.3 polynomial), continuing from ``value``."""
    crc = value ^ _MASK32
    table0, table1, table2, table3 = _CRC32_TABLES
    whole = len(data) & ~3
    for (word,) in struct.iter_unpack("<I", data[:whole]):
        crc ^= word
        crc = (
            table3[crc & 0xFF]
            ^ table2[(crc >> 8) & 0xFF]
            ^ table1[(crc >> 16) & 0xFF]
            ^ table0[crc >> 24]
        )
    for byte in data[whole:]:
        crc = (crc >> 8) ^ table0[(crc ^ byte) & 0xFF]
    return crc ^ _MASK32

"""Bloom filters for SST files.

RocksDB consults per-file bloom filters before touching any block, so point
reads for absent keys usually cost no decompression at all. Same here:
k hash probes over a bit array, with xxh32 under different seeds standing
in for the double-hashing scheme.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.codecs.checksum import xxh32


class BloomFilter:
    """Fixed-size bloom filter sized by bits-per-key."""

    def __init__(self, capacity: int, bits_per_key: int = 10) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if bits_per_key <= 0:
            raise ValueError("bits_per_key must be positive")
        self.bit_count = max(64, capacity * bits_per_key)
        # optimal probe count ~= bits_per_key * ln 2
        self.probes = max(1, min(16, round(bits_per_key * math.log(2))))
        self._bits = bytearray((self.bit_count + 7) // 8)

    @classmethod
    def from_bits(cls, bit_count: int, probes: int, bits: bytes) -> "BloomFilter":
        """The filter a file stored: ``bits`` must be exactly the bytes
        ``bit_count`` needs and ``probes`` one a constructor could have
        chosen, else :class:`ValueError`."""
        if bit_count <= 0 or len(bits) != (bit_count + 7) // 8:
            raise ValueError("filter bits do not cover the stated bit count")
        if not 1 <= probes <= 16:
            raise ValueError("filter probe count outside 1..16")
        bloom = cls.__new__(cls)
        bloom.bit_count = bit_count
        bloom.probes = probes
        bloom._bits = bytearray(bits)
        return bloom

    def _positions(self, key: bytes) -> Iterable[int]:
        # Kirsch-Mitzenmacher double hashing: h1 + i*h2.
        h1 = xxh32(key, seed=0x9747B28C)
        h2 = xxh32(key, seed=0x85EBCA6B) | 1
        for i in range(self.probes):
            yield (h1 + i * h2) % self.bit_count

    def add(self, key: bytes) -> None:
        for position in self._positions(key):
            self._bits[position >> 3] |= 1 << (position & 7)

    def might_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        for position in self._positions(key):
            if not self._bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    @property
    def bits(self) -> bytes:
        """The bit array, as :meth:`from_bits` takes it back."""
        return bytes(self._bits)

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

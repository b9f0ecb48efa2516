"""Sorted Sequence Table files with block-granular compression.

"each SST file is broken into a number of blocks ... and compressed in a
block granularity. ... To read certain data in a block, the entire block
needs to be decompressed" (Section IV-E). The block index maps first keys
to block offsets so a point read touches exactly one block.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.codecs import Compressor, get_codec
from repro.codecs.base import CodecError, CorruptDataError, StageCounters
from repro.codecs.checksum import crc32
from repro.codecs.varint import read_uvarint, write_uvarint
from repro.obs.instrument import record_block_decode, record_quarantine
from repro.obs.state import OBS_STATE
from repro.perfmodel import DEFAULT_MACHINE
from repro.resilience.quarantine import QuarantinedBlock
from repro.services.kvstore.blockcache import BlockCache
from repro.services.kvstore.bloom import BloomFilter

_TOMBSTONE_FLAG = 1
#: one number per table made in this process, so a table that compaction
#: retired never shares a block-cache key with a live one
_TABLE_SERIALS = itertools.count()
#: the footer's frame, the WAL's and the manifest's: length, crc32(payload)
_FOOTER_HEADER = struct.Struct("<II")


class BlockQuarantinedError(CorruptDataError):
    """A block failed verified-decompress and has been quarantined."""

    def __init__(self, block_index: int, reason: str) -> None:
        super().__init__(f"block {block_index} quarantined: {reason}")
        self.block_index = block_index


@dataclass
class SSTableStats:
    """Compression work performed building/reading one SST."""

    compress_counters: StageCounters = field(default_factory=StageCounters)
    decompress_counters: StageCounters = field(default_factory=StageCounters)
    blocks_written: int = 0
    blocks_read: int = 0
    raw_bytes: int = 0
    stored_bytes: int = 0
    #: reads answered "absent" by the bloom filter without touching a block
    bloom_skips: int = 0
    #: reads served from the decompressed-block cache
    cache_hits: int = 0
    #: blocks that failed verified-decompress, removed from service
    quarantined: List[QuarantinedBlock] = field(default_factory=list)


def encode_entry(out: bytearray, key: bytes, value: Optional[bytes]) -> None:
    """``uvarint key length | key | flag byte [| uvarint value length |
    value]``: the entry framing of SST blocks and WAL batches alike."""
    write_uvarint(out, len(key))
    out.extend(key)
    out.append(_TOMBSTONE_FLAG if value is None else 0)
    if value is not None:
        write_uvarint(out, len(value))
        out.extend(value)


def decode_entries(data: bytes, pos: int) -> List[Tuple[bytes, Optional[bytes]]]:
    """Every entry from ``pos`` to the end of ``data``. A key, flag or
    value that would run past the end is a :class:`CorruptDataError`,
    never a silently short key or value."""
    entries: List[Tuple[bytes, Optional[bytes]]] = []
    end = len(data)
    while pos < end:
        klen, pos = read_uvarint(data, pos)
        flag_at = pos + klen
        if flag_at >= end:
            raise CorruptDataError("entry key runs past the end of the data")
        key = data[pos:flag_at]
        pos = flag_at + 1
        if data[flag_at] & _TOMBSTONE_FLAG:
            entries.append((key, None))
            continue
        vlen, pos = read_uvarint(data, pos)
        if pos + vlen > end:
            raise CorruptDataError("entry value runs past the end of the data")
        entries.append((key, data[pos : pos + vlen]))
        pos += vlen
    return entries


class SSTable:
    """One immutable sorted file, read in place: a view of its file image
    (the storage's own buffer once a store installs it) that keeps each
    block's ``(offset, length)`` and first key, and the bloom filter."""

    def __init__(
        self,
        image,
        codec: Compressor,
        stats: SSTableStats,
        block_cache: Optional[BlockCache],
    ) -> None:
        """Walk the image past its codec name; no block is decoded."""
        self.image = image
        self._codec = codec
        self.codec_name = codec.name
        self.stats = stats
        self._cache = block_cache
        #: the block cache's key for this table: unlike ``id()``, never reused
        self._cache_key = next(_TABLE_SERIALS)
        #: backing file name once a store has written it (else None)
        self.file_name: Optional[str] = None
        self._bloom: Optional[BloomFilter] = None
        #: indices of blocks that failed verified-decompress; never re-decoded
        self._poisoned: set = set()
        #: the file's footer failed its checksum: no filter, raw size unknown
        self.filter_dropped = False
        pos = 5 + image[4]
        level_biased, pos = read_uvarint(image, pos)
        self.level = level_biased - 64
        self.entry_count, pos = read_uvarint(image, pos)
        block_count, pos = read_uvarint(image, pos)
        self._index: List[bytes] = []  # first key of each block
        #: ``(offset, length)`` of each compressed block in :attr:`image`
        self.block_spans: List[Tuple[int, int]] = []
        for __ in range(block_count):
            key_len, pos = read_uvarint(image, pos)
            if pos + key_len > len(image):
                raise CorruptDataError("truncated SST file")
            self._index.append(bytes(image[pos : pos + key_len]))
            pos += key_len
            block_len, pos = read_uvarint(image, pos)
            if pos + block_len > len(image):
                raise CorruptDataError("truncated SST file")
            self.block_spans.append((pos, block_len))
            pos += block_len
        self._load_footer(image, pos)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        entries: List[Tuple[bytes, Optional[bytes]]],
        codec: Optional[Compressor] = None,
        level: int = 1,
        block_size: int = 16384,
        bloom_bits_per_key: int = 10,
        block_cache: Optional[BlockCache] = None,
    ) -> "SSTable":
        """Build an SST file image from sorted (key, value-or-tombstone)
        entries, and the table that reads it.

        Layout: magic | codec name | level | entry count | block count |
        per block (first key | compressed block) | footer. The footer is
        one record in the WAL's framing, ``u32 LE length | u32 LE crc32 |
        payload``, holding what only a full scan could tell a reader: the
        table's raw (decoded) byte size and the bloom filter (``bit_count``
        | ``probes`` | bits; a table built without a filter writes
        ``bit_count`` 0).

        ``bloom_bits_per_key=0`` disables the bloom filter; ``block_cache``
        (shared across tables) serves repeated reads without decompression.
        """
        codec = codec if codec is not None else get_codec("zstd")
        stats = SSTableStats()
        body = bytearray()  # per block: first key | compressed block
        current = bytearray()
        first_key: Optional[bytes] = None
        previous_key: Optional[bytes] = None

        def flush_block() -> None:
            nonlocal current, first_key
            if not current:
                return
            raw = bytes(current)
            result = codec.compress(raw, level)
            stats.compress_counters.merge(result.counters)
            stats.blocks_written += 1
            stats.raw_bytes += len(raw)
            stats.stored_bytes += len(result.data)
            write_uvarint(body, len(first_key))
            body.extend(first_key)
            write_uvarint(body, len(result.data))
            body.extend(result.data)
            current = bytearray()
            first_key = None

        for key, value in entries:
            if previous_key is not None and key < previous_key:
                raise ValueError("entries must be sorted by key")
            previous_key = key
            if first_key is None:
                first_key = key
            encode_entry(current, key, value)
            if len(current) >= block_size:
                flush_block()
        flush_block()
        out = bytearray(cls._FILE_MAGIC)
        name = codec.name.encode()
        out.append(len(name))
        out.extend(name)
        write_uvarint(out, level + 64)  # levels can be negative
        write_uvarint(out, len(entries))
        write_uvarint(out, stats.blocks_written)
        out.extend(body)
        footer = bytearray()
        write_uvarint(footer, stats.raw_bytes)
        if bloom_bits_per_key > 0 and entries:
            bloom = BloomFilter(len(entries), bloom_bits_per_key)
            for key, __ in entries:
                bloom.add(key)
            write_uvarint(footer, bloom.bit_count)
            write_uvarint(footer, bloom.probes)
            footer.extend(bloom.bits)
        else:
            write_uvarint(footer, 0)
            write_uvarint(footer, 0)
        out.extend(_FOOTER_HEADER.pack(len(footer), crc32(footer)))
        out.extend(footer)
        return cls(bytes(out), codec, stats, block_cache)

    # -- reads ----------------------------------------------------------------

    def _locate_block(self, key: bytes) -> Optional[int]:
        """Index of the block that could contain ``key`` (binary search)."""
        if not self._index or key < self._index[0]:
            return None
        low, high = 0, len(self._index) - 1
        while low < high:
            mid = (low + high + 1) // 2
            if self._index[mid] <= key:
                low = mid
            else:
                high = mid - 1
        return low

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes], float]:
        """Point lookup: (found, value, block_decode_seconds).

        A corrupt block is quarantined and reported as *not found* here;
        :meth:`KVStore.get <repro.services.kvstore.db.KVStore.get>` then
        falls through to older tables -- the re-read-from-backing-store
        recovery, since LSM redundancy often still holds the key.
        """
        if self._bloom is not None and not self._bloom.might_contain(key):
            self.stats.bloom_skips += 1
            return False, None, 0.0
        block_index = self._locate_block(key)
        if block_index is None:
            return False, None, 0.0
        try:
            raw, decode_seconds = self._load_block(block_index)
        except CorruptDataError:
            return False, None, 0.0
        try:
            entries = decode_entries(raw, 0)
        except CorruptDataError:
            # the block decoded (checksum luck) but its entry framing is
            # gibberish: silent corruption, quarantined like loud corruption
            self._quarantine(block_index, "entry framing corrupt")
            return False, None, decode_seconds
        for entry_key, value in entries:
            if entry_key == key:
                return True, value, decode_seconds
            if entry_key > key:
                break
        return False, None, decode_seconds

    def _decompress(self, block_index: int):
        """Decode one block from the image as it is now."""
        offset, length = self.block_spans[block_index]
        return self._codec.decompress(bytes(self.image[offset : offset + length]))

    def _load_block(self, block_index: int) -> Tuple[bytes, float]:
        """Fetch one decompressed block, through the block cache if any.

        Verified-decompress: a block that fails validation is quarantined
        (recorded once, never re-decoded) and raises
        :class:`BlockQuarantinedError`.
        """
        if block_index in self._poisoned:
            raise BlockQuarantinedError(block_index, "previously quarantined")
        if self._cache is not None:
            cached = self._cache.get((self._cache_key, block_index))
            if cached is not None:
                self.stats.cache_hits += 1
                return cached, 0.0
        try:
            result = self._decompress(block_index)
        except CorruptDataError as exc:
            self._quarantine(block_index, str(exc))
            raise BlockQuarantinedError(block_index, str(exc)) from exc
        self.stats.decompress_counters.merge(result.counters)
        self.stats.blocks_read += 1
        decode_seconds = DEFAULT_MACHINE.decompress_seconds(
            self.codec_name, result.counters
        )
        if OBS_STATE.enabled:
            record_block_decode(self.codec_name, decode_seconds)
        if self._cache is not None:
            self._cache.put((self._cache_key, block_index), result.data)
        return result.data, decode_seconds

    def _quarantine(self, block_index: int, reason: str) -> None:
        self._poisoned.add(block_index)
        self.stats.quarantined.append(
            QuarantinedBlock(
                source="kvstore.sst",
                identifier=f"block {block_index}",
                codec=self.codec_name,
                reason=reason,
            )
        )
        if OBS_STATE.enabled:
            record_quarantine("kvstore.sst")

    def scan(self) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """Iterate every entry in key order (used by compaction).

        Quarantined blocks are skipped: compaction carries the surviving
        data forward instead of dying on the damaged block.
        """
        for block_index in range(len(self.block_spans)):
            if block_index in self._poisoned:
                continue
            try:
                result = self._decompress(block_index)
                entries = decode_entries(result.data, 0)
            except CorruptDataError as exc:
                self._quarantine(block_index, str(exc))
                continue
            self.stats.decompress_counters.merge(result.counters)
            self.stats.blocks_read += 1
            yield from entries

    def scan_range(
        self, start: bytes, end: bytes
    ) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """Iterate entries with ``start <= key < end``.

        Only blocks overlapping the range are decompressed -- the range-read
        analogue of the point-read block economics in Fig. 13. Quarantined
        blocks are skipped.
        """
        if start >= end or not self._index:
            return
        first = self._locate_block(start)
        first = 0 if first is None else first
        for block_index in range(first, len(self.block_spans)):
            if self._index[block_index] >= end:
                break
            try:
                raw, __ = self._load_block(block_index)
            except CorruptDataError:
                continue
            try:
                entries = decode_entries(raw, 0)
            except CorruptDataError:
                self._quarantine(block_index, "entry framing corrupt")
                continue
            for key, value in entries:
                if key >= end:
                    return
                if key >= start:
                    yield key, value

    @property
    def block_count(self) -> int:
        return len(self.block_spans)

    @property
    def quarantined_count(self) -> int:
        return len(self._poisoned)

    @property
    def has_filter(self) -> bool:
        return self._bloom is not None

    @property
    def stored_bytes(self) -> int:
        return self.stats.stored_bytes

    # -- file serialization ----------------------------------------------------

    _FILE_MAGIC = b"RSS2"

    def to_bytes(self) -> bytes:
        """The SST file image (layout in :meth:`build`)."""
        return bytes(self.image)

    @classmethod
    def from_bytes(
        cls,
        payload,
        block_cache: Optional[BlockCache] = None,
        verify_blocks: bool = False,
    ) -> "SSTable":
        """The table that reads the file image ``payload`` (any bytes-like
        object; a store passes its storage's buffer, not a copy).

        No block is decoded: the raw size and the bloom filter come from
        the footer. The filter is derived data and is never trusted past
        its checksum: a footer that is there but does not verify is
        dropped (:attr:`filter_dropped`) and the table serves without a
        filter, which can cost reads but never hide a key; a missing or
        short footer is a truncated file.

        With ``verify_blocks=True`` every block is decode-verified at load
        time (an RocksDB ``paranoid_checks``-style scrub); blocks that fail
        are quarantined up front instead of at first read.
        """
        if payload[:4] != cls._FILE_MAGIC:
            raise CorruptDataError("bad SST file magic")
        if len(payload) <= 4 or 5 + payload[4] > len(payload):
            raise CorruptDataError("truncated SST file")
        try:
            codec = get_codec(bytes(payload[5 : 5 + payload[4]]).decode())
        except (UnicodeDecodeError, CodecError):
            raise CorruptDataError("SST file names no known codec") from None
        table = cls(payload, codec, SSTableStats(), block_cache)
        if verify_blocks:
            for block_index in range(table.block_count):
                try:
                    table._decompress(block_index)
                except CorruptDataError as exc:
                    table._quarantine(block_index, f"load-time scrub: {exc}")
        return table

    def _load_footer(self, payload, pos: int) -> None:
        """Take the raw size and the filter from the footer at ``pos``."""
        body_start = pos + _FOOTER_HEADER.size
        if body_start > len(payload):
            raise CorruptDataError("truncated SST file")
        length, checksum = _FOOTER_HEADER.unpack_from(payload, pos)
        if body_start + length > len(payload):
            raise CorruptDataError("truncated SST file")
        footer = payload[body_start:]
        if len(footer) != length or crc32(footer) != checksum:
            self.filter_dropped = True
            return
        raw_bytes, at = read_uvarint(footer, 0)
        bit_count, at = read_uvarint(footer, at)
        probes, at = read_uvarint(footer, at)
        self.stats.raw_bytes = raw_bytes
        if bit_count == 0 and at == length:
            return  # built without a filter
        try:
            self._bloom = BloomFilter.from_bits(bit_count, probes, footer[at:])
        except ValueError as exc:
            raise CorruptDataError(f"SST footer: {exc}") from None

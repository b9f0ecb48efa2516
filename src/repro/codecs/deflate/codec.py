"""zlib container (RFC 1950) and the public ZlibCompressor class."""

from __future__ import annotations

from typing import Dict, Optional

from repro.codecs.base import (
    Compressor,
    CorruptDataError,
    StageCounters,
    register_codec,
)
from repro.codecs.checksum import adler32, crc32
from repro.codecs.deflate import deflate as denc
from repro.codecs.deflate import inflate as ddec
from repro.codecs.deflate import tables as dtables
from repro.codecs.matchfinders import finder_for_strategy
from repro.codecs.matchfinders.base import MatchFinderParams

#: zlib's configuration_table: level -> (strategy, search depth, lazy, nice).
_LEVEL_TABLE: Dict[int, MatchFinderParams] = {0: None}  # type: ignore[dict-item]
_ZLIB_CONFIG = {
    # Depths scaled down from zlib's configuration_table for pure-Python
    # wall-clock; ordering and strategy switches (greedy below 4, lazy above)
    # are preserved.
    1: ("greedy", 4, 0, 8),
    2: ("greedy", 8, 0, 16),
    3: ("greedy", 16, 0, 32),
    4: ("lazy", 12, 1, 16),
    5: ("lazy", 16, 1, 32),
    6: ("lazy", 32, 1, 128),
    7: ("lazy", 48, 1, 128),
    8: ("lazy", 64, 1, 258),
    9: ("lazy", 96, 1, 258),
}
for _level, (_strategy, _depth, _lazy, _nice) in _ZLIB_CONFIG.items():
    _LEVEL_TABLE[_level] = MatchFinderParams(
        window_log=15,
        hash_log=15,
        search_depth=_depth,
        min_match=dtables.MIN_MATCH,
        target_length=_nice,
        lazy_steps=_lazy,
        strategy=_strategy,
        max_match=dtables.MAX_MATCH,
        max_offset=dtables.MAX_DISTANCE,
    )


def _deflate_stream(data: bytes, level: int, counters: StageCounters) -> bytes:
    """The raw DEFLATE stream (RFC 1951) of ``data`` at ``level``, which the
    zlib and gzip containers both wrap: stored blocks at level 0, else the
    level's match-finder parse, entropy-coded."""
    if level == 0:
        sequences = ([], [], [])
    else:
        params = _LEVEL_TABLE[level]
        finder = finder_for_strategy(params.strategy)
        sequences = finder.parse(data, 0, params, counters)
    return denc.encode_stream(data, 0, sequences, counters, level)


class ZlibCompressor(Compressor):
    """zlib codec with levels 0..9 (0 = stored), RFC 1950/1951 compatible."""

    name = "zlib"
    min_level = 0
    max_level = 9
    default_level = 6

    def params_for_level(self, level: int) -> Optional[MatchFinderParams]:
        """Match-finder parameters for ``level`` (None for stored)."""
        return _LEVEL_TABLE[level]

    def _compress(
        self,
        data: bytes,
        level: int,
        dictionary: Optional[bytes],
        counters: StageCounters,
    ) -> bytes:
        stream = _deflate_stream(data, level, counters)
        # RFC 1950 header: CM=8, CINFO=7 (32K window); FLEVEL from level.
        flevel = 0 if level < 2 else (1 if level < 6 else (2 if level == 6 else 3))
        cmf = 0x78
        flg = flevel << 6
        remainder = (cmf * 256 + flg) % 31
        if remainder:
            flg += 31 - remainder
        out = bytearray((cmf, flg))
        out.extend(stream)
        out.extend(adler32(data).to_bytes(4, "big"))
        return bytes(out)

    def _decompress(
        self,
        payload: bytes,
        dictionary: Optional[bytes],
        counters: StageCounters,
    ) -> bytes:
        if len(payload) < 6:
            raise CorruptDataError("zlib stream too short")
        out = bytearray()
        pos = 0
        # Concatenated members decode as the concatenation of their
        # contents -- the multi-frame contract the parallel chunked
        # engine relies on (each chunk is one independent member).
        while pos < len(payload):
            if len(payload) - pos < 6:
                raise CorruptDataError("truncated zlib member")
            cmf, flg = payload[pos], payload[pos + 1]
            if cmf & 0x0F != 8:
                raise CorruptDataError("unsupported zlib compression method")
            if (cmf * 256 + flg) % 31:
                raise CorruptDataError("bad zlib header check")
            if flg & 0x20:
                raise CorruptDataError("preset dictionaries are not supported")
            base = len(out)
            data, end = ddec.decode_stream(
                payload,
                counters,
                budget_check=lambda produced, base=base: self._check_output_budget(
                    base + produced
                ),
                start=pos + 2,
            )
            if end + 4 > len(payload):
                raise CorruptDataError("missing Adler-32 trailer")
            stored = int.from_bytes(payload[end : end + 4], "big")
            if stored != adler32(data):
                raise CorruptDataError("Adler-32 checksum mismatch")
            out.extend(data)
            pos = end + 4
        return bytes(out)


class GzipCompressor(ZlibCompressor):
    """gzip container (RFC 1952) around the same DEFLATE engine.

    Interoperable with the reference implementation: stdlib ``gzip`` can
    decode our frames and vice versa. Timestamps are zeroed so output is
    deterministic.
    """

    name = "gzip"

    def _compress(
        self,
        data: bytes,
        level: int,
        dictionary: Optional[bytes],
        counters: StageCounters,
    ) -> bytes:
        stream = _deflate_stream(data, level, counters)
        xfl = 2 if level == 9 else (4 if level <= 2 else 0)
        header = bytes(
            [0x1F, 0x8B, 8, 0, 0, 0, 0, 0, xfl, 255]  # magic, CM, FLG, MTIME, XFL, OS
        )
        out = bytearray(header)
        out.extend(stream)
        out.extend(crc32(data).to_bytes(4, "little"))
        out.extend((len(data) & 0xFFFFFFFF).to_bytes(4, "little"))
        return bytes(out)

    @staticmethod
    def _member_header_end(payload: bytes, pos: int) -> int:
        """Validate one member header at ``pos``; returns the deflate offset."""
        if len(payload) - pos < 18:
            raise CorruptDataError("gzip stream too short")
        if payload[pos : pos + 2] != b"\x1f\x8b":
            raise CorruptDataError("bad gzip magic")
        if payload[pos + 2] != 8:
            raise CorruptDataError("unsupported gzip compression method")
        flags = payload[pos + 3]
        pos += 10
        if flags & 0x04:  # FEXTRA
            if pos + 2 > len(payload):
                raise CorruptDataError("truncated gzip extra field")
            extra_len = int.from_bytes(payload[pos : pos + 2], "little")
            pos += 2 + extra_len
        if flags & 0x08:  # FNAME
            end = payload.find(b"\x00", pos)
            if end < 0:
                raise CorruptDataError("unterminated gzip file name")
            pos = end + 1
        if flags & 0x10:  # FCOMMENT
            end = payload.find(b"\x00", pos)
            if end < 0:
                raise CorruptDataError("unterminated gzip comment")
            pos = end + 1
        if flags & 0x02:  # FHCRC
            pos += 2
        if pos + 8 > len(payload):
            raise CorruptDataError("gzip stream truncated")
        return pos

    def _decompress(
        self,
        payload: bytes,
        dictionary: Optional[bytes],
        counters: StageCounters,
    ) -> bytes:
        if len(payload) < 18:
            raise CorruptDataError("gzip stream too short")
        out = bytearray()
        pos = 0
        # RFC 1952 multi-member: a gzip file is any number of concatenated
        # members, decoded as the concatenation of their contents (stdlib
        # ``gzip`` does the same, which the oracle tests exploit).
        while pos < len(payload):
            deflate_start = self._member_header_end(payload, pos)
            base = len(out)
            data, end = ddec.decode_stream(
                payload,
                counters,
                budget_check=lambda produced, base=base: self._check_output_budget(
                    base + produced
                ),
                start=deflate_start,
            )
            if end + 8 > len(payload):
                raise CorruptDataError("missing gzip trailer")
            stored_crc = int.from_bytes(payload[end : end + 4], "little")
            stored_size = int.from_bytes(payload[end + 4 : end + 8], "little")
            if stored_crc != crc32(data):
                raise CorruptDataError("gzip CRC-32 mismatch")
            if stored_size != len(data) & 0xFFFFFFFF:
                raise CorruptDataError("gzip size mismatch")
            out.extend(data)
            pos = end + 8
        return bytes(out)


register_codec("zlib", ZlibCompressor)
register_codec("gzip", GzipCompressor)

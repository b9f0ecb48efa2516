"""Seeded corruption round-trips: hardened decode boundaries, per codec.

Stronger contract than :mod:`tests.codecs.test_corruption_fuzz` (which
accepts any :class:`CodecError`): a damaged frame must surface as
:class:`CorruptDataError` (or :class:`OutputLimitExceeded` when the
damage inflates the claimed output) -- never IndexError, struct.error,
ValueError, KeyError, or MemoryError. Plus the fault-injection seed
determinism the chaos scorecard depends on.
"""

import random

import pytest

from repro.codecs import get_codec
from repro.codecs.base import (
    Compressor,
    CorruptDataError,
    DecompressResult,
    OutputLimitExceeded,
    StageCounters,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec

_CODEC_NAMES = ["zstd", "lz4", "zlib", "gzip"]
_SAMPLES = ["text", "structured", "rle", "mostly_random"]
_MAX_OUT = 1 << 22


def _attempt(codec, payload: bytes) -> None:
    """Decode damaged bytes; success or a *typed* corruption error only."""
    try:
        codec.decompress(payload, max_output_bytes=_MAX_OUT)
    except (CorruptDataError, OutputLimitExceeded):
        pass
    # anything else (IndexError, struct.error, ValueError, ...) escapes
    # and fails the test


@pytest.mark.parametrize("codec_name", _CODEC_NAMES)
@pytest.mark.parametrize("sample", _SAMPLES)
class TestSeededCorruptionRoundTrip:
    def test_every_byte_position_truncation(self, codec_name, sample, payloads):
        codec = get_codec(codec_name)
        blob = codec.compress(payloads[sample], codec.default_level).data
        for length in range(len(blob)):
            _attempt(codec, blob[:length])

    def test_seeded_random_bit_flips(self, codec_name, sample, payloads):
        codec = get_codec(codec_name)
        blob = codec.compress(payloads[sample], codec.default_level).data
        rng = random.Random(f"corruption:{codec_name}:{sample}")
        for __ in range(80):
            damaged = bytearray(blob)
            for __ in range(rng.randint(1, 8)):
                damaged[rng.randrange(len(damaged))] ^= 1 << rng.randrange(8)
            _attempt(codec, bytes(damaged))

    def test_garbage_tail_after_valid_frame(self, codec_name, sample, payloads):
        codec = get_codec(codec_name)
        blob = codec.compress(payloads[sample], codec.default_level).data
        rng = random.Random(f"garbage:{codec_name}:{sample}")
        tail = bytes(rng.getrandbits(8) for __ in range(64))
        _attempt(codec, blob + tail)


class TestBoundaryWrapping:
    """The base-class decode boundary translates raw exceptions."""

    class _BrokenCodec(Compressor):
        name = "broken"
        min_level = max_level = default_level = 1

        def __init__(self, exc):
            self._exc = exc

        def _compress(self, data, level, dictionary, counters):
            raise NotImplementedError

        def _decompress(self, payload, dictionary, counters):
            raise self._exc

    @pytest.mark.parametrize(
        "raw",
        [
            IndexError("index out of range"),
            KeyError("missing table entry"),
            ValueError("bad length"),
            OverflowError("shift too large"),
            MemoryError(),
        ],
    )
    def test_raw_exceptions_become_corrupt_data_error(self, raw):
        codec = self._BrokenCodec(raw)
        with pytest.raises(CorruptDataError, match="malformed payload"):
            codec.decompress(b"\x00\x01\x02")

    def test_struct_error_becomes_corrupt_data_error(self):
        import struct

        codec = self._BrokenCodec(struct.error("unpack requires 4 bytes"))
        with pytest.raises(CorruptDataError):
            codec.decompress(b"\x00\x01\x02")

    def test_corrupt_data_error_passes_through_unchanged(self):
        original = CorruptDataError("checksum mismatch")
        codec = self._BrokenCodec(original)
        with pytest.raises(CorruptDataError, match="checksum mismatch"):
            codec.decompress(b"\x00")


class TestFaultPlanSeedDeterminism:
    """Same (plan, seed, opportunities) -> identical fault decisions."""

    def _history(self, seed):
        plan = FaultPlan(
            "det",
            (
                FaultSpec("rpc.wire", "drop", 0.2),
                FaultSpec("rpc.wire", "bit_flip", 0.3, magnitude=2),
                FaultSpec("codec", "fail", 0.15),
                FaultSpec("kvstore.storage", "truncate", 0.25),
            ),
        )
        injector = FaultInjector(plan, seed=seed)
        outcomes = []
        for i in range(150):
            wire = injector.on_wire("rpc.wire", b"msg %d body " % i * 4)
            outcomes.append((wire.dropped, bytes(wire.payload), wire.kinds))
            codec = injector.on_codec_call("codec.zstd.decompress", b"z %d" % i)
            outcomes.append((codec.fail, bytes(codec.payload), codec.kinds))
            stored = injector.corrupt_payload("kvstore.storage", b"blk %d " % i * 8)
            outcomes.append(stored)
        return outcomes

    def test_identical_across_runs(self):
        assert self._history(42) == self._history(42)

    def test_seed_changes_decisions(self):
        assert self._history(42) != self._history(43)

    def test_corrupted_bytes_identical_across_runs(self):
        plan = FaultPlan("p", (FaultSpec("s", "bit_flip", 1.0, magnitude=5),))
        data = bytes(range(256)) * 4
        first = FaultInjector(plan, seed=9).corrupt_payload("s", data)
        second = FaultInjector(plan, seed=9).corrupt_payload("s", data)
        assert first == second

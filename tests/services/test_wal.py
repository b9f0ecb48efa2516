"""The write-ahead log: framing, rotation, replay, torn-tail truncation."""

import struct

import pytest

from repro.codecs.base import CorruptDataError
from repro.codecs.checksum import crc32
from repro.codecs.varint import write_uvarint
from repro.services.kvstore.sst import encode_entry
from repro.services.kvstore.storage import SimStorage
from repro.services.kvstore.wal import WriteAheadLog


def _batch(i, n=3):
    return [
        (f"k{i:03d}:{j}".encode(), f"value {i:03d}/{j}".encode())
        for j in range(n)
    ]


class TestAppendReplay:
    def test_round_trip(self):
        storage = SimStorage()
        wal = WriteAheadLog(storage)
        wal.append(1, _batch(1))
        wal.append(2, [(b"gone", None)])
        replay = WriteAheadLog(storage).replay()
        assert replay.records == 2
        assert replay.entries == 4
        assert replay.max_seq == 2
        assert replay.batches[0][0] == 1
        assert replay.batches[0][1] == _batch(1)
        assert replay.batches[1][1] == [(b"gone", None)]
        assert replay.torn_tails == 0

    def test_empty_log_replays_empty(self):
        replay = WriteAheadLog(SimStorage()).replay()
        assert replay.records == 0
        assert replay.max_seq == 0
        assert replay.segments == 0

    def test_rotation_spreads_segments(self):
        storage = SimStorage()
        wal = WriteAheadLog(storage, segment_bytes=256)
        for i in range(20):
            wal.append(i + 1, _batch(i))
        segments = storage.list("wal-")
        assert len(segments) > 1
        replay = WriteAheadLog(storage).replay()
        assert replay.records == 20
        assert replay.segments == len(segments)
        assert replay.max_seq == 20

    def test_prune_removes_all_segments(self):
        storage = SimStorage()
        wal = WriteAheadLog(storage, segment_bytes=256)
        for i in range(10):
            wal.append(i + 1, _batch(i))
        wal.prune()
        assert storage.list("wal-") == []
        # appends after a prune land in a fresh segment and replay clean
        wal.append(11, _batch(11))
        assert WriteAheadLog(storage).replay().records == 1


class TestTornTails:
    def test_unsynced_record_never_replays(self):
        storage = SimStorage(seed=9)
        wal = WriteAheadLog(storage)
        wal.append(1, _batch(1))
        # an in-flight append that crashed before sync: simulate by
        # appending raw bytes without syncing, then cutting power
        segment = storage.list("wal-")[-1]
        storage.append(segment, b"\xff" * 40)
        storage.crash()
        replay = WriteAheadLog(storage).replay()
        assert replay.records == 1
        assert replay.max_seq == 1
        assert replay.torn_tails == 1

    def test_crash_mid_record_for_every_seed(self):
        # the strictly-partial tear guarantees a CRC/length failure, so
        # no seed can resurrect the torn record
        for seed in range(12):
            storage = SimStorage(seed=seed)
            wal = WriteAheadLog(storage)
            wal.append(1, _batch(1))
            segment = storage.list("wal-")[-1]
            payload = b"not-a-record-but-plausible-bytes" * 3
            storage.append(
                segment,
                struct.pack("<II", len(payload), 0xDEAD) + payload,
            )
            storage.crash()
            replay = WriteAheadLog(storage).replay()
            assert replay.records == 1, f"seed {seed} resurrected a record"

    def test_corrupt_crc_truncates(self):
        storage = SimStorage()
        wal = WriteAheadLog(storage)
        wal.append(1, _batch(1))
        wal.append(2, _batch(2))
        segment = storage.list("wal-")[0]
        data = bytearray(storage.read(segment))
        data[-1] ^= 0xFF  # flip a byte in the last record's payload
        storage.write_file(segment, bytes(data))
        replay = WriteAheadLog(storage).replay()
        assert replay.records == 1
        assert replay.torn_tails == 1

    def test_torn_nonfinal_segment_does_not_stop_replay(self):
        # a lying fsync can leave an older segment torn while newer,
        # properly synced segments follow — replay must continue past it
        storage = SimStorage()
        wal = WriteAheadLog(storage, segment_bytes=64)
        wal.append(1, _batch(1))  # fills segment 0, rotates
        wal.append(2, _batch(2))  # segment 1
        first = storage.list("wal-")[0]
        storage.truncate(first, storage.size(first) - 3)
        replay = WriteAheadLog(storage).replay()
        assert replay.torn_tails == 1
        assert [seq for seq, _ in replay.batches] == [2]
        assert replay.max_seq == 2

    def test_next_append_goes_past_replayed_segments(self):
        storage = SimStorage()
        wal = WriteAheadLog(storage, segment_bytes=64)
        wal.append(1, _batch(1))
        wal.append(2, _batch(2))
        reopened = WriteAheadLog(storage, segment_bytes=64)
        reopened.replay()
        reopened.append(3, _batch(3))
        replay = WriteAheadLog(storage).replay()
        assert [seq for seq, _ in replay.batches] == [1, 2, 3]


class TestDecodeStrictness:
    def test_trailing_garbage_in_payload_rejected(self):
        from repro.services.kvstore.wal import _decode_batch, _encode_batch

        good = _encode_batch(5, _batch(5))
        assert _decode_batch(good)[0] == 5
        with pytest.raises(CorruptDataError):
            _decode_batch(good + b"\x00")
        with pytest.raises(CorruptDataError):
            _decode_batch(good[:-1])

    def test_miscounted_batch_rejected(self):
        from repro.services.kvstore.wal import _decode_batch

        for claimed in (3, 5):  # four well-formed entries follow
            payload = bytearray()
            write_uvarint(payload, 9)
            write_uvarint(payload, claimed)
            for key, value in _batch(9, n=4):
                encode_entry(payload, key, value)
            with pytest.raises(CorruptDataError):
                _decode_batch(bytes(payload))

    @pytest.mark.parametrize(
        "payload",
        [
            b"",  # no seq at all
            b"\x80",  # a varint cut off mid-value
            b"\x05\x01\x80",  # a key length cut off mid-value
            b"\x05\x01\x03ab",  # a key shorter than its length
            b"\x05\x01\x01k",  # no flag byte
            b"\x05\x01\x01k\x00\x09v",  # a value shorter than its length
        ],
    )
    def test_checksum_valid_malformed_record_is_a_torn_tail(self, payload):
        # the frame verifies, the batch inside does not parse: replay
        # truncates there, as it does for a failed checksum
        storage = SimStorage()
        wal = WriteAheadLog(storage)
        wal.append(1, _batch(1))
        segment = storage.list("wal-")[-1]
        good_size = storage.size(segment)
        storage.append(
            segment, struct.pack("<II", len(payload), crc32(payload)) + payload
        )
        storage.sync(segment)
        replay = WriteAheadLog(storage).replay()
        assert [seq for seq, _ in replay.batches] == [1]
        assert replay.torn_tails == 1
        assert storage.size(segment) == good_size

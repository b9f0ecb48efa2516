"""What one KV block costs to decode and verify, as counts.

A point read is one whole-block decode plus its content checksum (paper
Sec. IV-E, Fig. 13), so the read path's cost is what these functions do per
stripe, per table and per sequence. Wall-clock cannot be held in tier-1
(EXPERIMENTS.md has the clocks); these counts repeat exactly, on one pinned
16 KiB block of KV records (350 sequences, a Huffman literals table and two
custom FSE tables):

- ``xxh32`` runs at most six interpreter ``line`` events per 16-byte
  stripe (five today; the loop that spread and multiplied every stripe in
  big-int arithmetic ran eight);
- building the Huffman decoder calls nothing per codeword (it used to
  reverse each one through a string, 192 calls for this table);
- the functions of ``zstd/blocks.py`` run at most 17 ``line`` events per
  decoded sequence, headers included (16.1 today; 19.8 when the sequences
  were listed as tuples first and executed by a second loop);
- an ``FSEDecoder`` is built once per custom table the block carries and
  never for a predefined or RLE stream;
- a crafted block whose sequences regenerate more than a block can hold is
  stopped within one run of sequences, however many it carries.
"""

from __future__ import annotations

import sys

import pytest

from repro.codecs import get_codec
from repro.codecs.base import CorruptDataError, StageCounters
from repro.codecs.checksum import xxh32
from repro.codecs.entropy.huffman import HuffmanDecoder
from repro.codecs.zstd import blocks
from repro.codecs.zstd.params import MAX_BLOCK_SIZE
from repro.corpus import generate_kv_records
from repro.services.kvstore import SSTable

BLOCK_BYTES = 16384


def _traced(call, on_frame):
    """``call()``'s result, with ``on_frame(frame)`` asked for a local trace
    function at every Python frame entered meanwhile."""

    def on_call(frame, event, arg):
        return on_frame(frame)

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        return call()
    finally:
        sys.settrace(previous)


def _line_events_inside(codes, call):
    """``call()``'s result, and the ``line`` events in frames running one of
    the code objects ``codes`` (not their callees) meanwhile."""
    events = 0

    def count_lines(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return count_lines

    result = _traced(call, lambda frame: count_lines if frame.f_code in codes else None)
    return result, events


def _python_calls_beneath(code, call):
    """``call()``'s result, and how many Python frames were entered with a
    frame running ``code`` somewhere up their stack."""
    entered = 0

    def on_frame(frame):
        nonlocal entered
        caller = frame.f_back
        while caller is not None:
            if caller.f_code is code:
                entered += 1
                break
            caller = caller.f_back
        return None

    return _traced(call, on_frame), entered


@pytest.fixture(scope="module")
def kv_block():
    """(stored bytes, decoded bytes, decompress counters) of the first
    block of a zstd-1 SST over 200 generated KV records."""
    records = sorted(generate_kv_records(200, seed=22))
    table = SSTable.build(
        records, codec=get_codec("zstd"), level=1, block_size=BLOCK_BYTES
    )
    offset, length = table.block_spans[0]
    stored = table.to_bytes()[offset : offset + length]
    result = get_codec("zstd").decompress(stored)
    assert BLOCK_BYTES <= len(result.data) < BLOCK_BYTES + 1024
    assert result.counters.sequences_decoded == 350
    return stored, result.data, result.counters


def test_xxh32_runs_few_statements_per_stripe(kv_block):
    __, raw, __ = kv_block
    stripes = len(raw) // 16
    digest, events = _line_events_inside({xxh32.__code__}, lambda: xxh32(raw))
    assert digest == int.from_bytes(kv_block[0][-4:], "little")
    assert 3 * stripes < events <= 6 * stripes


def test_huffman_decoder_build_calls_nothing_per_codeword(kv_block):
    stored, __, __ = kv_block
    built = []
    decoder_class = blocks.HuffmanDecoder

    def recording_decoder(lengths):
        built.append(list(lengths))
        return decoder_class(lengths)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blocks, "HuffmanDecoder", recording_decoder)
        get_codec("zstd").decompress(stored)
    (lengths,) = built
    assert sum(1 for length in lengths if length) > 100
    __, calls = _python_calls_beneath(
        HuffmanDecoder.__init__.__code__, lambda: HuffmanDecoder(lengths)
    )
    assert calls <= 2  # `canonical_codes`, and nothing per symbol


def test_block_functions_run_few_statements_per_sequence(kv_block):
    stored, raw, counters = kv_block
    block_codes = {
        function.__code__
        for function in vars(blocks).values()
        if getattr(function, "__module__", None) == blocks.__name__
        and hasattr(function, "__code__")
    }
    assert blocks.decode_block.__code__ in block_codes
    result, events = _line_events_inside(
        block_codes, lambda: get_codec("zstd").decompress(stored)
    )
    assert result.data == raw
    assert 0 < events <= 17 * counters.sequences_decoded


def test_one_fse_decoder_per_custom_table(kv_block, monkeypatch):
    stored, raw, __ = kv_block
    # the three predefined decoders are shared and built on first use
    for stream_index in range(len(blocks._STREAM_SPECS)):
        blocks._predefined_decoder(stream_index)
    built = []
    tables_read = []
    decoder_class, read_table = blocks.FSEDecoder, blocks._read_custom_table

    def counted_decoder(normalized, table_log):
        built.append(table_log)
        return decoder_class(normalized, table_log)

    def counted_read(*args):
        tables_read.append(args[1])
        return read_table(*args)

    monkeypatch.setattr(blocks, "FSEDecoder", counted_decoder)
    monkeypatch.setattr(blocks, "_read_custom_table", counted_read)
    # frame: magic 4, flags 1, window log 1, content size 8, block header 4;
    # content checksum 4
    body = stored[18:-4]
    assert blocks.decode_block(body, StageCounters()) == raw
    assert len(tables_read) == 2
    assert len(built) == len(tables_read)


def test_a_block_that_regenerates_too_much_is_stopped_within_one_run():
    """``sequences`` matches of the longest length the format can state, at
    offset 1 behind one literal: 64 KiB each, in about 2.5 stored bytes."""
    longest = 65538
    assert 2 * longest > MAX_BLOCK_SIZE

    def crafted(sequences):
        parse = ([1] + [0] * (sequences - 1), [longest] * sequences, [1] * sequences)
        data = b"a" * (1 + longest * sequences)
        return blocks.encode_block(data, 0, parse, StageCounters())

    def events_until_rejected(body):
        def decode():
            with pytest.raises(CorruptDataError, match="more than a block holds"):
                blocks.decode_block(body, StageCounters())

        return _line_events_inside({blocks.decode_block.__code__}, decode)[1]

    assert len(blocks.decode_block(crafted(1), StageCounters())) == longest + 1
    one_run = events_until_rejected(crafted(blocks._SEQUENCE_RUN))
    # nothing past the first run is executed: 16 MiB would be regenerated
    # by the 256 sequences otherwise
    assert events_until_rejected(crafted(256)) == one_run
    # and the cap is not checked per sequence
    assert events_until_rejected(crafted(2)) < one_run
    # the literals after the last sequence count too
    tail = MAX_BLOCK_SIZE - longest
    data = b"a" * (1 + longest + tail)
    body = blocks.encode_block(
        data, 0, ([1, tail], [longest, 0], [1, 0]), StageCounters()
    )
    with pytest.raises(CorruptDataError, match="more than a block holds"):
        blocks.decode_block(body, StageCounters())
    assert blocks.decode_block(
        blocks.encode_block(
            data[1:], 0, ([1, tail - 1], [longest, 0], [1, 0]), StageCounters()
        ),
        StageCounters(),
    ) == data[1:]

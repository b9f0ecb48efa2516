"""What a compress call pays before it looks at its first byte, as counts.

The paper's small-item regime (Sec. IV-C, IV-E) is dominated by per-call
set-up, and a dictionary is supposed to make a call cheaper, not dearer. A
wall-clock assertion could not hold that in tier-1; these counts repeat
exactly:

- the interpreter ``line`` events inside ``parse`` for a 64 B item behind
  an 8 KiB history stay below the history's size, i.e. no Python statement
  runs per history byte (the chains come from one ``chain_links`` pass);
- ``encode_block`` builds an FSE encoder only for a code stream that could
  repay a custom table header, and builds it once (the encoder that priced
  the stream is the one that codes it);
- the hand-off from parser to bitstream makes no Python call per sequence:
  ``parse`` returns three int lists and builds no object per match, and
  ``zstd.blocks.encode_block`` / ``deflate.encode_stream`` read every code
  off a table, so their Python calls for one 64 KiB block are the same
  few at 256 sequences as at 8,738. The bit writer's calls follow the bits
  written, one per packed run, and are bounded by those instead.
"""

from __future__ import annotations

import gc
import random
import sys

import pytest

from repro.codecs import get_codec
from repro.codecs.base import StageCounters
from repro.codecs.matchfinders import (
    HashChainMatchFinder,
    OptimalMatchFinder,
    finder_for_strategy,
)
from repro.codecs.deflate import deflate
from repro.codecs.entropy.bitio import BitWriter
from repro.codecs.zstd import blocks

from lz77_oracle import validate_parse

HISTORY_BYTES = 8192
ITEM_BYTES = 64


def _line_events_inside(function, call):
    """``call()``'s result, and the ``line`` events in frames running
    ``function`` itself (not its callees) meanwhile."""
    code = function.__code__
    events = 0

    def count_lines(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return count_lines

    def on_call(frame, event, arg):
        return count_lines if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, events


def _history_and_item():
    # Random history keeps the chains short, so what is counted is set-up
    # and one search per item byte, not how deep the search was told to go.
    rng = random.Random(64)
    history = rng.randbytes(HISTORY_BYTES)
    item = history[1000 : 1000 + ITEM_BYTES // 2] + rng.randbytes(ITEM_BYTES // 2)
    return history, item


@pytest.mark.parametrize(
    "finder_class,level", [(HashChainMatchFinder, 3), (OptimalMatchFinder, 19)]
)
def test_parse_runs_no_statement_per_history_byte(finder_class, level):
    history, item = _history_and_item()
    buffer = history + item
    params = get_codec("zstd").params_for_level(level, len(buffer))
    finder = finder_for_strategy(params.strategy)
    assert type(finder) is finder_class
    sequences, events = _line_events_inside(
        finder_class.parse, lambda: finder.parse(buffer, len(history), params)
    )
    validate_parse(sequences, buffer, history_length=len(history))
    # the item's first half sits in the history, and the parse reached it:
    # an offset longer than the item can only point there
    assert max(sequences[2]) > ITEM_BYTES
    assert 0 < events < HISTORY_BYTES


class _CountedEncoders:
    """``blocks.FSEEncoder`` constructions and stream-mode decisions of the
    ``encode_block`` calls made while patched in."""

    def __init__(self, patch: pytest.MonkeyPatch) -> None:
        # the three predefined encoders are shared and built on first use
        for stream_index in range(len(blocks._STREAM_SPECS)):
            blocks._predefined_encoder(stream_index)
        self.built = 0
        self.modes = []
        encoder_class, choose = blocks.FSEEncoder, blocks._choose_stream_mode

        def counted_encoder(*args):
            self.built += 1
            return encoder_class(*args)

        def recorded_choice(codes, stream_index):
            choice = choose(codes, stream_index)
            self.modes.append(choice[0])
            return choice

        patch.setattr(blocks, "FSEEncoder", counted_encoder)
        patch.setattr(blocks, "_choose_stream_mode", recorded_choice)


def _encode_zeros(sequences, patch):
    """``encode_block`` of an all-zero buffer, where every (offset, length)
    is a valid match, behind 16 KiB of zero history; returns what it built."""
    history = bytes(16384)
    body = bytes(sum(sequences[0]) + sum(sequences[1]))
    counted = _CountedEncoders(patch)
    counters = StageCounters()
    payload = blocks.encode_block(history + body, len(history), sequences, counters)
    assert blocks.decode_block(payload, StageCounters(), history) == body
    return counted, counters


def test_streams_that_cannot_repay_a_header_build_no_encoder(monkeypatch):
    sequences = ([4, 0, 7, 1], [8, 5, 30, 4], [4, 12, 300, 9])
    counted, counters = _encode_zeros(sequences, monkeypatch)
    assert counted.modes == [blocks._STREAM_PREDEFINED] * 3
    assert counted.built == 0
    assert counters.table_builds == 0


def test_custom_streams_build_their_encoder_once(monkeypatch):
    # 600 sequences on two codes per stream that the predefined
    # distributions hold rare: each stream repays its own table.
    rng = random.Random(7)
    sequences = ([], [], [])
    for __ in range(600):
        sequences[0].append(rng.choice((10, 11)))
        sequences[1].append(rng.choice((40, 41)))
        sequences[2].append(rng.choice((5000, 9000)))
    counted, counters = _encode_zeros(sequences, monkeypatch)
    assert counted.modes == [blocks._STREAM_CUSTOM] * 3
    assert counted.built == 3
    assert counters.table_builds == 3


def _python_calls_under(function, call):
    """``call()``'s result, and the Python ``call`` events in frames that
    ``function`` runs beneath it: ``(bit writer calls, every other call)``."""
    code = function.__code__
    writer_codes = {
        member.__code__ for member in vars(BitWriter).values() if hasattr(member, "__code__")
    }
    depth = writer_calls = other_calls = 0

    def profile(frame, event, arg):
        nonlocal depth, writer_calls, other_calls
        if frame.f_code is code:
            depth += event == "call"
            depth -= event == "return"
        elif event == "call" and depth:
            if frame.f_code in writer_codes:
                writer_calls += 1
            else:
                other_calls += 1

    # a cyclic collection inside the call would count other objects'
    # finalizers (a suspended generator's close is a Python call)
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return result, (writer_calls, other_calls)


def _zero_block_parse(step):
    """A parse of 64 KiB of zeros: one literal, then a match of ``step - 1``
    or ``step - 2`` bytes at offset 1 or 2 (seeded), until the block ends."""
    rng = random.Random(step)
    sequences = ([], [], [])
    position = 0
    while position + step <= 65536:
        sequences[0].append(1)
        sequences[1].append(step - rng.choice((1, 2)))
        sequences[2].append(rng.choice((1, 2)))
        position += 1 + sequences[1][-1]
    for field, value in zip(sequences, (65536 - position, 0, 0)):
        field.append(value)
    return sequences


#: encoder -> (call, ceiling on its Python calls outside the bit writer);
#: before the parse was three lists the calls grew by 3-4 a sequence:
#: 1,075 / 26,261 (zstd) and 610 / 17,581 (deflate) at 256 / 8,738
#: sequences, against 53 / 49 and 126 / 117 since
_ENCODERS = {
    "zstd": (blocks.encode_block, lambda data, parse: blocks.encode_block(
        data, 0, parse, StageCounters()), 64),
    "deflate": (deflate.encode_stream, lambda data, parse: deflate.encode_stream(
        data, 0, parse, StageCounters(), 6), 144),
}


@pytest.mark.parametrize("name", sorted(_ENCODERS))
def test_encoders_make_no_python_call_per_sequence(name):
    function, encode, ceiling = _ENCODERS[name]
    data = bytes(65536)
    for step, sequences in ((256, 256), (8, 8738)):
        parse = _zero_block_parse(step)
        assert len(parse[1]) - 1 == sequences
        payload, (writer_calls, other_calls) = _python_calls_under(
            function, lambda: encode(data, parse)
        )
        assert other_calls <= ceiling, (step, other_calls)
        # a write (and the flush it may make) per packed run of >= 256 bits
        assert writer_calls <= 8 * len(payload) // 128 + 32, (step, writer_calls)


def _word_salad():
    """64 KiB of words drawn from 300 short ones: matches of a few bytes to
    a few tens of bytes, nearly all shorter than 32."""
    rng = random.Random(5)
    words = [
        bytes(rng.choice(b"abcdefghijklmnop") for __ in range(rng.randint(2, 7)))
        for __ in range(300)
    ]
    return b" ".join(rng.choice(words) for __ in range(20000))[:65536]


#: (codec, level) -> ceiling on the Python calls inside ``parse``; before
#: the parse was three lists each sequence cost a ``Token`` and its check
#: and each candidate a ``match_length`` call: 32,437 (zstd-1), 34,026
#: (zstd-3) and 54,461 (zstd-9) on ~10,000 sequences, against 6, 15 and 18
_PARSE_CALLS = {("zstd", 1): 8, ("zstd", 3): 24, ("zstd", 9): 32, ("lz4", 1): 8}


@pytest.mark.parametrize("algorithm,level", sorted(_PARSE_CALLS))
def test_parse_makes_no_python_call_per_sequence(algorithm, level):
    data = _word_salad()
    codec = get_codec(algorithm)
    params = (
        codec.params_for_level(level, len(data))
        if algorithm == "zstd"
        else codec.params_for_level(level)
    )
    finder = finder_for_strategy(params.strategy)
    sequences, (__, calls) = _python_calls_under(
        type(finder).parse, lambda: finder.parse(data, 0, params)
    )
    validate_parse(sequences, data)
    assert len(sequences[1]) > 9000
    assert calls <= _PARSE_CALLS[algorithm, level]

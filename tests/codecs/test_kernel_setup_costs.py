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
  the stream is the one that codes it).
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.codecs import get_codec
from repro.codecs.base import StageCounters
from repro.codecs.lz77 import Token
from repro.codecs.matchfinders import (
    HashChainMatchFinder,
    OptimalMatchFinder,
    finder_for_strategy,
)
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
    tokens, events = _line_events_inside(
        finder_class.parse, lambda: finder.parse(buffer, len(history), params)
    )
    validate_parse(tokens, buffer, history_length=len(history))
    # the item's first half sits in the history, and the parse reached it:
    # an offset longer than the item can only point there
    assert any(token.offset > ITEM_BYTES for token in tokens)
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


def _encode_zeros(tokens, patch):
    """``encode_block`` of an all-zero buffer, where every (offset, length)
    is a valid match, behind 16 KiB of zero history; returns what it built."""
    history = bytes(16384)
    body = bytes(sum(t.literal_length + t.match_length for t in tokens))
    counted = _CountedEncoders(patch)
    counters = StageCounters()
    payload = blocks.encode_block(history + body, len(history), tokens, counters)
    assert blocks.decode_block(payload, StageCounters(), history) == body
    return counted, counters


def test_streams_that_cannot_repay_a_header_build_no_encoder(monkeypatch):
    tokens = [Token(4, 8, 4), Token(0, 5, 12), Token(7, 30, 300), Token(1, 4, 9)]
    counted, counters = _encode_zeros(tokens, monkeypatch)
    assert counted.modes == [blocks._STREAM_PREDEFINED] * 3
    assert counted.built == 0
    assert counters.table_builds == 0


def test_custom_streams_build_their_encoder_once(monkeypatch):
    # 600 sequences on two codes per stream that the predefined
    # distributions hold rare: each stream repays its own table.
    rng = random.Random(7)
    tokens = [
        Token(rng.choice((10, 11)), rng.choice((40, 41)), rng.choice((5000, 9000)))
        for __ in range(600)
    ]
    counted, counters = _encode_zeros(tokens, monkeypatch)
    assert counted.modes == [blocks._STREAM_CUSTOM] * 3
    assert counted.built == 3
    assert counters.table_builds == 3

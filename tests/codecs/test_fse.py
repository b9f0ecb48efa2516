"""Finite State Entropy (tANS) tests."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.codecs.entropy.bitio import BitReader, BitWriter
from repro.codecs.entropy.fse import (
    FSEDecoder,
    FSEEncoder,
    _spread_symbols,
    normalize_counts,
)


class TestNormalizeCounts:
    def test_sums_to_table_size(self):
        norm = normalize_counts([10, 20, 30, 40], table_log=6)
        assert sum(norm) == 64

    def test_present_symbols_get_at_least_one_state(self):
        norm = normalize_counts([1000, 1, 1, 1], table_log=5)
        assert all(n >= 1 for i, n in enumerate(norm) if [1000, 1, 1, 1][i])

    def test_absent_symbols_get_zero(self):
        norm = normalize_counts([5, 0, 5], table_log=4)
        assert norm[1] == 0

    def test_proportionality(self):
        norm = normalize_counts([75, 25], table_log=6)
        assert norm[0] > norm[1]
        assert norm[0] == pytest.approx(48, abs=4)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            normalize_counts([0, 0], table_log=5)

    def test_too_many_symbols_rejected(self):
        with pytest.raises(ValueError):
            normalize_counts([1] * 40, table_log=5)

    def test_single_symbol_takes_whole_table(self):
        norm = normalize_counts([0, 9, 0], table_log=5)
        assert norm == [0, 32, 0]


class TestSpread:
    def test_spread_covers_all_states(self):
        norm = normalize_counts([5, 3, 2], table_log=5)
        spread = _spread_symbols(norm, 5)
        assert len(spread) == 32
        for symbol, count in enumerate(norm):
            assert spread.count(symbol) == count


class TestEncodeDecode:
    def _roundtrip(self, symbols, alphabet, table_log=9):
        counts = [0] * alphabet
        for s in symbols:
            counts[s] += 1
        norm = normalize_counts(counts, table_log)
        writer = BitWriter()
        FSEEncoder(norm, table_log).encode(symbols, writer)
        decoder = FSEDecoder(norm, table_log)
        return decoder.decode(len(symbols), BitReader(writer.getvalue()))

    def test_roundtrip_skewed(self):
        symbols = [0] * 500 + [1] * 100 + [2] * 20 + [3] * 4
        assert self._roundtrip(symbols, 4) == symbols

    def test_roundtrip_interleaved(self):
        symbols = [i % 7 for i in range(1000)]
        assert self._roundtrip(symbols, 7) == symbols

    def test_roundtrip_single_distinct_symbol(self):
        symbols = [3] * 200
        assert self._roundtrip(symbols, 4) == symbols

    def test_roundtrip_one_symbol_message(self):
        assert self._roundtrip([2], 4) == [2]

    def test_roundtrip_small_table(self):
        symbols = [0, 1] * 64
        assert self._roundtrip(symbols, 2, table_log=5) == symbols

    def test_compression_approaches_entropy(self):
        # 90/10 binary source: H = 0.469 bits/symbol
        symbols = ([0] * 9 + [1]) * 300
        counts = [symbols.count(0), symbols.count(1)]
        norm = normalize_counts(counts, 9)
        writer = BitWriter()
        bits = FSEEncoder(norm, 9).encode(symbols, writer)
        entropy = -sum(
            c / len(symbols) * math.log2(c / len(symbols)) for c in counts
        )
        assert bits / len(symbols) < entropy * 1.15 + 9 / len(symbols) + 0.05

    def test_fse_beats_whole_bit_coding_on_skew(self):
        # Huffman floors at 1 bit/symbol; tANS goes below it.
        symbols = ([0] * 15 + [1]) * 200
        counts = [symbols.count(0), symbols.count(1)]
        norm = normalize_counts(counts, 9)
        writer = BitWriter()
        bits = FSEEncoder(norm, 9).encode(symbols, writer)
        assert bits / len(symbols) < 0.75

    def test_cost_in_bits_matches_actual(self):
        symbols = [i % 5 for i in range(333)]
        counts = [symbols.count(s) for s in range(5)]
        norm = normalize_counts(counts, 8)
        encoder = FSEEncoder(norm, 8)
        writer = BitWriter()
        actual = encoder.encode(symbols, writer)
        assert encoder.cost_in_bits(symbols) == actual

    def test_zero_probability_symbol_rejected(self):
        norm = normalize_counts([5, 5, 0], table_log=5)
        with pytest.raises(ValueError):
            FSEEncoder(norm, 5).encode([2], BitWriter())

    def test_mismatched_norm_rejected(self):
        with pytest.raises(ValueError):
            FSEEncoder([3, 3], table_log=3)
        with pytest.raises(ValueError):
            FSEDecoder([3, 3], table_log=3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=500))
def test_roundtrip_property(symbols):
    counts = [0] * 10
    for s in symbols:
        counts[s] += 1
    norm = normalize_counts(counts, 8)
    writer = BitWriter()
    FSEEncoder(norm, 8).encode(symbols, writer)
    decoded = FSEDecoder(norm, 8).decode(len(symbols), BitReader(writer.getvalue()))
    assert decoded == symbols


def _rows_by_definition(normalized, table_log):
    """Each state's (symbol, bits to read, their mask, next-state base),
    from the definition: a symbol numbers its states ``n .. 2n - 1`` in
    slot order, and state ``x`` reads enough bits to land back in the
    table."""
    table_size = 1 << table_log
    symbol_next = list(normalized)
    rows = []
    for symbol in _spread_symbols(normalized, table_log):
        x = symbol_next[symbol]
        symbol_next[symbol] += 1
        num_bits = table_log - (x.bit_length() - 1)
        rows.append((symbol, num_bits, (1 << num_bits) - 1, (x << num_bits) - table_size))
    return rows


@settings(max_examples=60, deadline=None)
@given(
    st.integers(5, 12),
    st.lists(st.integers(0, 400), min_size=1, max_size=53).filter(any),
)
def test_decoder_rows_match_the_per_state_definition(table_log, counts):
    # a histogram with more present symbols than states has no table
    # (test_too_many_symbols_rejected covers that rejection)
    assume(sum(1 for c in counts if c) <= 1 << table_log)
    normalized = normalize_counts(counts, table_log)
    decoder = FSEDecoder(normalized, table_log)
    rows = [(symbol,) + row for symbol, row in zip(decoder._symbols, decoder._table)]
    assert rows == _rows_by_definition(normalized, table_log)
    for state, (symbol, num_bits, __, base) in enumerate(rows):
        assert normalized[symbol] > 0
        # every next state the row can produce is inside the table
        assert 0 <= base and base + (1 << num_bits) <= 1 << table_log


def test_spread_visits_every_slot_once_at_every_table_log():
    for table_log in range(5, 13):
        # one symbol per state: the spread is then a permutation of them
        spread = _spread_symbols([1] * (1 << table_log), table_log)
        assert sorted(spread) == list(range(1 << table_log))

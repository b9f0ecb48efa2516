"""Finite State Entropy (tANS) coding.

This is the entropy scheme Zstandard uses for its sequence codes. A table of
``2**table_log`` states is partitioned among symbols in proportion to their
normalized frequencies; encoding walks the state machine backwards emitting a
variable number of bits per symbol, decoding walks it forwards.

The implementation follows the textbook tANS construction: the decoding table
is built first (symbol spread + per-state transition), and the encoder is its
exact inverse, so round-trip correctness holds by construction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.codecs.entropy.bitio import SYMBOL_RUN, BitReader, BitWriter


def normalize_counts(counts: Sequence[int], table_log: int) -> List[int]:
    """Scale a histogram so it sums to ``2**table_log``.

    Every symbol with a non-zero raw count keeps a normalized count of at
    least 1 (it must own at least one state). Uses largest-remainder
    apportionment, stealing from the most frequent symbols when low-frequency
    symbols get bumped up to 1.
    """
    table_size = 1 << table_log
    total = sum(counts)
    if total <= 0:
        raise ValueError("histogram is empty")
    present = sum(1 for c in counts if c > 0)
    if present > table_size:
        raise ValueError(
            f"{present} symbols cannot share {table_size} states"
        )

    normalized = [0] * len(counts)
    remainders: List[Tuple[float, int]] = []
    assigned = 0
    for symbol, count in enumerate(counts):
        if count <= 0:
            continue
        exact = count * table_size / total
        floor_value = max(1, int(exact))
        normalized[symbol] = floor_value
        assigned += floor_value
        remainders.append((exact - floor_value, symbol))

    # Distribute any shortfall to the largest remainders; recover any excess
    # from the symbols holding the most states.
    remainders.sort(reverse=True)
    index = 0
    while assigned < table_size:
        __, symbol = remainders[index % len(remainders)]
        normalized[symbol] += 1
        assigned += 1
        index += 1
    while assigned > table_size:
        richest = max(
            (s for s, n in enumerate(normalized) if n > 1),
            key=lambda s: normalized[s],
        )
        normalized[richest] -= 1
        assigned -= 1
    return normalized


@lru_cache(maxsize=None)
def _visit_of_slot(table_log: int) -> Tuple[int, ...]:
    """For each table slot, which visit of the spread step lands on it."""
    table_size = 1 << table_log
    step = (table_size >> 1) + (table_size >> 3) + 3
    visits: List[Optional[int]] = [None] * table_size
    for visit in range(table_size):
        visits[(visit * step) & (table_size - 1)] = visit
    if None in visits:
        raise AssertionError("symbol spread left unassigned states")
    return tuple(visits)


def _spread_symbols(normalized: Sequence[int], table_log: int) -> List[int]:
    """Scatter symbols across the state table (Zstandard's spread step).

    The walk visits every slot once (the step is odd); the k-th visit
    goes to the symbol that owns the k-th state when symbols are laid end
    to end, each ``normalized[symbol]`` times.
    """
    in_visit_order: List[int] = []
    for symbol, count in enumerate(normalized):
        in_visit_order += [symbol] * count
    visits = _visit_of_slot(table_log)
    if len(in_visit_order) != len(visits):
        raise AssertionError("normalized counts do not fill the state table")
    return list(map(in_visit_order.__getitem__, visits))


@lru_cache(maxsize=None)
def _decode_rows(table_log: int) -> List[Tuple[int, int, int]]:
    """Decode rows ``(bits to read, their mask, next-state base)`` by ``x``.

    A symbol with occupancy ``n`` numbers its states ``x = n .. 2n - 1`` in
    slot order, and a state's row depends on ``table_log`` and ``x`` only,
    never on the symbol: every decoder with this ``table_log`` shares
    these tuples. ``x`` stays below twice the table size; row 0 is unused.
    """
    table_size = 1 << table_log
    rows = [(0, 0, 0)]
    for x in range(1, 2 * table_size):
        num_bits = table_log - (x.bit_length() - 1)
        rows.append((num_bits, (1 << num_bits) - 1, (x << num_bits) - table_size))
    return rows


class FSEEncoder:
    """tANS encoder for one normalized symbol distribution."""

    def __init__(self, normalized: Sequence[int], table_log: int) -> None:
        if sum(normalized) != (1 << table_log):
            raise ValueError("normalized counts must sum to the table size")
        self.table_log = table_log
        self.normalized = list(normalized)
        table_size = 1 << table_log
        # owned[s][j] = full state of the j-th table slot owned by symbol s
        # (scanned in increasing index order, matching the decoder's counter).
        owned: List[List[int]] = [[] for _ in normalized]
        for index, symbol in enumerate(_spread_symbols(normalized, table_log)):
            owned[symbol].append(table_size + index)
        # Per symbol with occupancy n: coding from state S shifts out k bits
        # so that S >> k lands in [n, 2n), and k is `max_bits` when S has
        # reached `threshold`, one less below it. `successors[S >> k]` is the
        # next state; its first n entries pad the index so no subtraction
        # is needed per symbol.
        self._steps: List[Optional[Tuple[int, int, List[int]]]] = [None] * len(owned)
        for symbol, occupancy in enumerate(normalized):
            if occupancy:
                max_bits = table_log - (occupancy.bit_length() - 1)
                self._steps[symbol] = (
                    max_bits,
                    occupancy << max_bits,
                    [0] * occupancy + owned[symbol],
                )

    def encode(self, symbols: Sequence[int], writer: BitWriter) -> int:
        """Encode ``symbols`` so a forward-reading decoder recovers them.

        Returns the number of payload bits written (including the initial
        state). The encoder walks the sequence backwards, as tANS requires.
        """
        for symbol in sorted(set(symbols)):
            if not self.normalized[symbol]:
                raise ValueError(f"symbol {symbol} has zero probability")
        steps = self._steps
        state = 1 << self.table_log  # full state in [table_size, 2*table_size)
        # The decoder reads the fields in the opposite order to the one they
        # are produced in, so each new field goes *below* the ones before
        # it; the packed runs are then written last-produced first.
        runs: List[Tuple[int, int]] = []
        packed = packed_bits = 0
        for symbol in reversed(symbols):
            max_bits, threshold, successors = steps[symbol]
            num_bits = max_bits if state >= threshold else max_bits - 1
            packed = packed << num_bits | state & ((1 << num_bits) - 1)
            packed_bits += num_bits
            state = successors[state >> num_bits]
            if packed_bits >= 8 * SYMBOL_RUN:  # keep the packed int small
                runs.append((packed, packed_bits))
                packed = packed_bits = 0
        runs.append((packed, packed_bits))
        start_bits = writer.bit_length
        writer.write(state - (1 << self.table_log), self.table_log)
        for packed, packed_bits in reversed(runs):
            writer.write(packed, packed_bits)
        return writer.bit_length - start_bits

    def cost_in_bits(self, symbols: Sequence[int]) -> int:
        """Exact coded size (in bits) without producing output."""
        steps = self._steps
        state = 1 << self.table_log
        total = self.table_log
        for symbol in reversed(symbols):
            max_bits, threshold, successors = steps[symbol]
            num_bits = max_bits if state >= threshold else max_bits - 1
            total += num_bits
            state = successors[state >> num_bits]
        return total


class FSEDecoder:
    """tANS decoder matching :class:`FSEEncoder`.

    Holds only the table, so one decoder can serve any number of streams.
    """

    def __init__(self, normalized: Sequence[int], table_log: int) -> None:
        if sum(normalized) != (1 << table_log):
            raise ValueError("normalized counts must sum to the table size")
        self.table_log = table_log
        rows = _decode_rows(table_log)
        #: per state: the symbol it emits
        self._symbols = _spread_symbols(normalized, table_log)
        #: per state: (bits to read, their mask, next-state base)
        self._table: List[Tuple[int, int, int]] = []
        symbol_next = list(normalized)
        for symbol in self._symbols:
            x = symbol_next[symbol]
            symbol_next[symbol] = x + 1
            self._table.append(rows[x])

    def decode(self, count: int, reader: BitReader) -> List[int]:
        """Decode ``count`` symbols (the stream must be positioned at init)."""
        table = self._table
        emitted = self._symbols
        table_log = self.table_log
        state = reader.read(table_log)
        symbols: List[int] = []
        for done in range(0, count, SYMBOL_RUN):
            run = min(SYMBOL_RUN, count - done)
            # A symbol reads at most `table_log` bits; past the end of the
            # stream the window reads as zeros and `skip` raises.
            window = reader.peek(run * table_log)
            used = 0
            for _ in range(run):
                symbols.append(emitted[state])
                num_bits, mask, base = table[state]
                state = base + (window >> used & mask)
                used += num_bits
            reader.skip(used)
        return symbols

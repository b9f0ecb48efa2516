"""LSB-first bit-level reader and writer.

Both DEFLATE and FSE consume bits least-significant-bit first within each
byte, so a single pair of primitives serves every entropy coder in the
package. Both sides keep pending bits in a Python int (cheap
arbitrary-precision shifting) and move whole bytes between it and the byte
string in bulk: the writer once a few words have gathered, the reader a
few words ahead of what was asked for.

Symbol loops do not call :meth:`BitWriter.write` or :meth:`BitReader.read`
once per symbol. An encoder packs a run of codes into one int and writes
it with a single call; a decoder takes a window with :meth:`BitReader.peek`,
decodes a run of symbols out of it, and returns what it used with
:meth:`BitReader.skip`, which is also where a truncated stream surfaces.
"""

from __future__ import annotations

#: symbols an entropy coder packs per ``write`` / decodes per peeked window
SYMBOL_RUN = 32
#: pending bits at which the writer moves its whole bytes to the buffer
_FLUSH_BITS = 64
#: bytes the reader loads beyond the ones a call needs
_READ_AHEAD = 8


class BitWriter:
    """Accumulates bit fields LSB-first and renders them to bytes."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._bit_count = 0

    def write(self, value: int, num_bits: int) -> None:
        """Append the low ``num_bits`` bits of ``value``."""
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        if num_bits == 0:
            return
        if value < 0:
            raise ValueError("value must be non-negative")
        self._accumulator |= (value & ((1 << num_bits) - 1)) << self._bit_count
        self._bit_count += num_bits
        if self._bit_count >= _FLUSH_BITS:
            self._flush_whole_bytes()

    def _flush_whole_bytes(self) -> None:
        whole = self._bit_count >> 3
        self._buffer += (self._accumulator & ((1 << (whole << 3)) - 1)).to_bytes(
            whole, "little"
        )
        self._accumulator >>= whole << 3
        self._bit_count &= 7

    def align_to_byte(self) -> None:
        """Pad with zero bits up to the next byte boundary."""
        # the accumulator is zero above `_bit_count`, so padding is a count
        self._bit_count = (self._bit_count + 7) & ~7
        self._flush_whole_bytes()

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes; the stream must be byte-aligned."""
        if self._bit_count & 7:
            raise ValueError("stream is not byte-aligned")
        self._flush_whole_bytes()
        self._buffer.extend(data)

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * 8 + self._bit_count

    def getvalue(self) -> bytes:
        """Return the byte rendering, zero-padding any trailing partial byte."""
        pending = self._accumulator.to_bytes((self._bit_count + 7) >> 3, "little")
        return bytes(self._buffer) + pending


class BitReader:
    """Reads bit fields LSB-first from a byte string."""

    def __init__(self, data: bytes, start: int = 0) -> None:
        self._data = data
        self._byte_pos = start
        self._accumulator = 0
        self._bit_count = 0

    def _fill(self, num_bits: int) -> None:
        """Buffer at least ``num_bits`` bits, or all that remain."""
        wanted = ((num_bits - self._bit_count + 7) >> 3) + _READ_AHEAD
        chunk = self._data[self._byte_pos : self._byte_pos + wanted]
        self._accumulator |= int.from_bytes(chunk, "little") << self._bit_count
        self._byte_pos += len(chunk)
        self._bit_count += len(chunk) << 3

    def read(self, num_bits: int) -> int:
        """Read ``num_bits`` bits; raises ``EOFError`` past end of data."""
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        if self._bit_count < num_bits:
            self._fill(num_bits)
            if self._bit_count < num_bits:
                raise EOFError("bit stream exhausted")
        value = self._accumulator & ((1 << num_bits) - 1)
        self._accumulator >>= num_bits
        self._bit_count -= num_bits
        return value

    def peek(self, num_bits: int) -> int:
        """Return the next ``num_bits`` bits without consuming them.

        Past end-of-stream the missing bits read as zero, which is what
        table-driven Huffman decoding needs for its final symbols.
        """
        if self._bit_count < num_bits:
            self._fill(num_bits)
        return self._accumulator & ((1 << num_bits) - 1)

    def skip(self, num_bits: int) -> None:
        """Consume ``num_bits`` bits a ``peek`` has already looked at."""
        if num_bits > self._bit_count:
            raise EOFError("cannot skip past available bits")
        self._accumulator >>= num_bits
        self._bit_count -= num_bits

    def align_to_byte(self) -> None:
        """Drop bits up to the next byte boundary."""
        drop = self._bit_count % 8
        self._accumulator >>= drop
        self._bit_count -= drop

    def read_bytes(self, count: int) -> bytes:
        """Read whole bytes; the stream must be byte-aligned."""
        if self._bit_count % 8:
            raise ValueError("stream is not byte-aligned")
        # Hand the buffered whole bytes back and slice the data directly.
        start = self.byte_position
        if start + count > len(self._data):
            raise EOFError("byte stream exhausted")
        self._byte_pos = start + count
        self._accumulator = 0
        self._bit_count = 0
        return bytes(self._data[start : start + count])

    @property
    def bits_remaining(self) -> int:
        """Bits left in the stream (buffered plus unread bytes)."""
        return self._bit_count + 8 * (len(self._data) - self._byte_pos)

    @property
    def byte_position(self) -> int:
        """Byte offset of the read cursor within the underlying data.

        Exact only when the stream is byte-aligned (call
        :meth:`align_to_byte` first); mid-byte the partially-consumed byte
        counts as unread. Frame-aware decoders use this to find where one
        member ends and the next concatenated member begins.
        """
        return self._byte_pos - self._bit_count // 8

"""Far memory: proactive compression of cold pages.

The paper's introduction lists reducing "the memory total cost of ownership
(TCO) by proactively compressing cold memory pages" among the fleet's
compression uses, citing zswap-style software-defined far memory and TMO.
This substrate models that path: a pool of 4 KB pages with access-recency
tracking; pages cold for longer than a threshold are compressed into a
compact pool, and touching a compressed page incurs a decompression fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.codecs import Compressor, get_codec
from repro.codecs.base import CodecError, StageCounters
from repro.perfmodel import DEFAULT_MACHINE
from repro.resilience.breaker import CircuitBreaker

PAGE_SIZE = 4096
#: a page must shrink by at least this fraction to move to the far tier
_MIN_SAVING = 0.10


class PageLostError(RuntimeError):
    """A compressed page could not be decoded back; its data is gone.

    Carries ``page_number``; the page has been dropped from the pool, so
    the owner's recovery is to reconstruct the page from its source of
    truth and :meth:`FarMemoryPool.write` it again.
    """

    def __init__(self, page_number: int, reason: str = "") -> None:
        super().__init__(
            f"page {page_number} lost to corruption"
            + (f" ({reason})" if reason else "")
        )
        self.page_number = page_number


@dataclass
class FarMemoryStats:
    """Accounting for one pool."""

    pages_written: int = 0
    pages_compressed: int = 0
    pages_faulted: int = 0
    incompressible_pages: int = 0
    compress_counters: StageCounters = field(default_factory=StageCounters)
    decompress_counters: StageCounters = field(default_factory=StageCounters)
    fault_seconds_total: float = 0.0
    # -- resilience accounting --
    #: reclaim-pass compressions skipped because the breaker was open
    compression_skips: int = 0
    #: reclaim-pass compressions that raised (page stayed resident)
    compress_failures: int = 0
    #: fault-path decodes that needed the one transient retry
    decode_retries: int = 0
    #: pages dropped because their compressed image would not decode
    pages_lost: int = 0

    @property
    def mean_fault_seconds(self) -> float:
        if not self.pages_faulted:
            return 0.0
        return self.fault_seconds_total / self.pages_faulted


@dataclass
class _Page:
    data: Optional[bytes]  # resident plaintext, or None when compressed
    compressed: Optional[bytes]
    last_access_tick: int


class FarMemoryPool:
    """A page pool with a cold-age compression policy.

    Time is a logical tick advanced by :meth:`tick`; a reclaim pass
    compresses every page untouched for ``cold_age_ticks``. Pages that do
    not compress (high-entropy contents) stay resident, as zswap's
    same-filled/incompressible handling does.
    """

    def __init__(
        self,
        codec: Optional[Compressor] = None,
        level: int = 1,
        cold_age_ticks: int = 4,
        breaker: Optional[CircuitBreaker] = None,
        tick_seconds: float = 1.0,
    ) -> None:
        self.codec = codec if codec is not None else get_codec("zstd")
        self.level = level
        self.cold_age_ticks = cold_age_ticks
        #: trips reclaim-pass compression to "leave pages resident" when
        #: the codec keeps failing; its clock advances tick_seconds/tick
        self.breaker = breaker
        self.tick_seconds = tick_seconds
        self._pages: Dict[int, _Page] = {}
        self._tick = 0
        self.stats = FarMemoryStats()

    # -- time ------------------------------------------------------------------

    def tick(self) -> None:
        """Advance logical time and run one reclaim pass."""
        self._tick += 1
        if self.breaker is not None:
            self.breaker.clock.advance(self.tick_seconds)
        self._reclaim()

    @property
    def now(self) -> int:
        return self._tick

    # -- page operations ----------------------------------------------------------

    def write(self, page_number: int, data: bytes) -> None:
        """Install or overwrite one page (pads/truncates to PAGE_SIZE)."""
        page_data = bytes(data[:PAGE_SIZE]).ljust(PAGE_SIZE, b"\x00")
        self._pages[page_number] = _Page(
            data=page_data, compressed=None, last_access_tick=self._tick
        )
        self.stats.pages_written += 1

    def read(self, page_number: int) -> bytes:
        """Touch one page; faults it back in if it was compressed.

        The fault path is verified-decompress with one transient retry; a
        page whose compressed image will not decode is dropped and
        reported as :class:`PageLostError` (the owner rebuilds it from the
        source of truth), never an unhandled codec exception.
        """
        page = self._pages[page_number]
        page.last_access_tick = self._tick
        if page.data is not None:
            return page.data
        try:
            result = self.codec.decompress(page.compressed)
        except CodecError:
            self.stats.decode_retries += 1
            try:
                result = self.codec.decompress(page.compressed)
            except CodecError as exc:
                self.stats.pages_lost += 1
                del self._pages[page_number]
                raise PageLostError(page_number, str(exc)) from exc
        self.stats.decompress_counters.merge(result.counters)
        fault_seconds = DEFAULT_MACHINE.decompress_seconds(
            self.codec.name, result.counters
        )
        self.stats.pages_faulted += 1
        self.stats.fault_seconds_total += fault_seconds
        page.data = result.data
        page.compressed = None
        return page.data

    def _reclaim(self) -> None:
        for page in self._pages.values():
            if page.data is None:
                continue
            if self._tick - page.last_access_tick < self.cold_age_ticks:
                continue
            if self.breaker is not None and not self.breaker.allow():
                self.stats.compression_skips += 1
                page.last_access_tick = self._tick
                continue
            try:
                result = self.codec.compress(page.data, self.level)
            except CodecError:
                self.stats.compress_failures += 1
                if self.breaker is not None:
                    self.breaker.record_failure()
                # page stays resident; retried after it goes cold again
                page.last_access_tick = self._tick
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            self.stats.compress_counters.merge(result.counters)
            if len(result.data) > PAGE_SIZE * (1 - _MIN_SAVING):
                self.stats.incompressible_pages += 1
                # leave resident; re-checking every pass would waste cycles,
                # so push the page's clock forward instead
                page.last_access_tick = self._tick
                continue
            page.compressed = result.data
            page.data = None
            self.stats.pages_compressed += 1

    # -- accounting ----------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Plaintext bytes currently occupying DRAM."""
        return sum(PAGE_SIZE for p in self._pages.values() if p.data is not None)

    @property
    def compressed_bytes(self) -> int:
        """Bytes in the compressed pool."""
        return sum(
            len(p.compressed) for p in self._pages.values() if p.compressed is not None
        )

    @property
    def memory_saving(self) -> float:
        """Fraction of the pool's footprint eliminated by compression."""
        total_pages = len(self._pages)
        if not total_pages:
            return 0.0
        uncompressed = total_pages * PAGE_SIZE
        actual = self.resident_bytes + self.compressed_bytes
        return 1.0 - actual / uncompressed

    def __len__(self) -> int:
        return len(self._pages)

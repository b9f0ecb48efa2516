"""Codec interface, results, instrumentation counters, and the registry.

Every codec reports *stage counters* alongside its output: how much work the
LZ match-finding stage and the entropy stage performed. The performance model
(:mod:`repro.perfmodel`) converts counters into modeled datacenter-core cycles
and throughput, which is how this reproduction substitutes for wall-clock
measurements on production hardware (see DESIGN.md section 1.2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.obs.instrument import record_codec_call
from repro.obs.state import OBS_STATE


class CodecError(Exception):
    """Base class for codec failures."""


class CorruptDataError(CodecError):
    """Raised when a compressed payload fails structural or checksum validation."""


class OutputLimitExceeded(CodecError):
    """Raised when decompression would exceed the caller's output budget.

    The guard against decompression bombs: callers handling untrusted
    payloads set ``max_output_bytes`` and decoding stops as soon as the
    limit would be crossed, before the memory is committed.
    """


@dataclass
class StageCounters:
    """Operation counts for one compression or decompression call.

    The counters are split by pipeline stage so the paper's match-finding
    versus entropy-encoding attribution (Fig. 7) can be reproduced directly.
    """

    bytes_in: int = 0
    bytes_out: int = 0
    # -- LZ match-finding stage (compression only) --
    positions_scanned: int = 0
    hash_probes: int = 0
    match_candidates: int = 0
    match_bytes_compared: int = 0
    sequences_emitted: int = 0
    literals_emitted: int = 0
    # -- entropy stage --
    entropy_symbols: int = 0
    entropy_bits: int = 0
    table_builds: int = 0
    #: work-table slots allocated (hash/chain/DP arrays) -- fixed per-call
    #: setup cost that makes very small compressions slower (paper IV-E)
    setup_entries: int = 0
    # -- decode side --
    sequences_decoded: int = 0
    literal_bytes_copied: int = 0
    match_bytes_copied: int = 0
    entropy_symbols_decoded: int = 0
    # -- structural transform stage (graph codecs) --
    #: bytes moved through invertible restructuring transforms (transpose,
    #: delta, tokenize, ...) before/after the entropy leaves; zero for the
    #: flat codecs, so their modeled costs are unchanged
    transform_bytes: int = 0

    def merge(self, other: "StageCounters") -> None:
        """Accumulate another counter set into this one (in place)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def copy(self) -> "StageCounters":
        return StageCounters(**{f.name: getattr(self, f.name) for f in fields(self)})


@dataclass
class CompressResult:
    """Output of one compression call."""

    data: bytes
    counters: StageCounters
    codec: str
    level: int

    @property
    def ratio(self) -> float:
        """Compression ratio: original size / compressed size (higher is better)."""
        if not self.data:
            return 1.0
        return self.counters.bytes_in / len(self.data)


@dataclass
class DecompressResult:
    """Output of one decompression call."""

    data: bytes
    counters: StageCounters
    codec: str


class Compressor:
    """Abstract lossless compressor.

    Subclasses implement :meth:`_compress` and :meth:`_decompress`; this base
    class handles argument validation and counter bookkeeping shared by all
    codecs.
    """

    #: registry key, e.g. ``"zstd"``
    name: str = "abstract"
    #: inclusive level range supported by the codec
    min_level: int = 1
    max_level: int = 1
    default_level: int = 1

    def compress(
        self,
        data: bytes,
        level: Optional[int] = None,
        dictionary: Optional[bytes] = None,
    ) -> CompressResult:
        """Compress ``data`` at ``level`` (codec default when omitted).

        ``dictionary`` is raw shared history prepended out-of-band; the codecs
        that support dictionaries (zstd-style) use it to seed the match
        window, the others raise :class:`CodecError`.
        """
        if level is None:
            level = self.default_level
        if not self.min_level <= level <= self.max_level:
            raise CodecError(
                f"{self.name} supports levels {self.min_level}..{self.max_level}, "
                f"got {level}"
            )
        if dictionary is not None and not self.supports_dictionaries():
            raise CodecError(f"{self.name} does not support dictionaries")
        counters = StageCounters(bytes_in=len(data))
        # telemetry: one flag read per call; everything else only when on
        obs_on = OBS_STATE.enabled
        # repro: lint-ok[D001] -- wall duration feeds the CODEC_SECONDS
        # histogram only; modeled speeds come from perfmodel counters
        start = perf_counter() if obs_on else 0.0
        payload = self._compress(bytes(data), level, dictionary, counters)
        counters.bytes_out = len(payload)
        if obs_on:
            record_codec_call(
                # repro: lint-ok[D001] -- telemetry-only wall measurement
                self.name, "compress", level, counters, perf_counter() - start
            )
        return CompressResult(payload, counters, self.name, level)

    def decompress(
        self,
        payload: bytes,
        dictionary: Optional[bytes] = None,
        max_output_bytes: Optional[int] = None,
    ) -> DecompressResult:
        """Decompress ``payload`` produced by :meth:`compress`.

        ``max_output_bytes`` bounds the decoded size for untrusted inputs;
        exceeding it raises :class:`OutputLimitExceeded` during decoding.
        """
        if max_output_bytes is not None and max_output_bytes < 0:
            raise ValueError("max_output_bytes must be non-negative")
        counters = StageCounters(bytes_in=len(payload))
        obs_on = OBS_STATE.enabled
        # repro: lint-ok[D001] -- wall duration feeds the CODEC_SECONDS
        # histogram only; modeled speeds come from perfmodel counters
        start = perf_counter() if obs_on else 0.0
        self._output_limit = max_output_bytes
        try:
            data = self._decompress(bytes(payload), dictionary, counters)
        except CodecError:
            raise
        except (
            IndexError,
            KeyError,
            ValueError,
            OverflowError,
            struct.error,
            MemoryError,
        ) as exc:
            # The decode boundary: no malformed payload may escape as a
            # low-level exception. Anything the format checks above missed
            # (bad varint, short slice, out-of-range table index) is, by
            # definition, corrupt input.
            raise CorruptDataError(
                f"{self.name}: malformed payload "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        finally:
            self._output_limit = None
        if max_output_bytes is not None and len(data) > max_output_bytes:
            raise OutputLimitExceeded(
                f"decoded {len(data)} bytes exceeds limit {max_output_bytes}"
            )
        counters.bytes_out = len(data)
        if obs_on:
            record_codec_call(
                # repro: lint-ok[D001] -- telemetry-only wall measurement
                self.name, "decompress", None, counters, perf_counter() - start
            )
        return DecompressResult(data, counters, self.name)

    #: per-call output budget, set by :meth:`decompress` (None = unbounded)
    _output_limit: Optional[int] = None

    def _check_output_budget(self, produced: int) -> None:
        """Codecs call this as output grows to fail early on bombs."""
        if self._output_limit is not None and produced > self._output_limit:
            raise OutputLimitExceeded(
                f"decoded output exceeds limit {self._output_limit}"
            )

    def supports_dictionaries(self) -> bool:
        return False

    def frame_spans(self, payload: bytes) -> Optional[List[Tuple[int, int]]]:
        """``(start, stop)`` of every concatenated frame in ``payload``,
        found by walking headers without decoding (what lets a
        multi-frame stream decode in parallel). ``None`` when the format
        only learns a frame's end by decoding it, as the deflate family
        does. Malformed input raises :class:`CorruptDataError`."""
        return None

    def levels(self) -> List[int]:
        """All supported compression levels, ascending."""
        return list(range(self.min_level, self.max_level + 1))

    # -- subclass hooks ----------------------------------------------------
    def _compress(
        self,
        data: bytes,
        level: int,
        dictionary: Optional[bytes],
        counters: StageCounters,
    ) -> bytes:
        raise NotImplementedError

    def _decompress(
        self,
        payload: bytes,
        dictionary: Optional[bytes],
        counters: StageCounters,
    ) -> bytes:
        raise NotImplementedError


_REGISTRY: Dict[str, Callable[[], Compressor]] = {}


def register_codec(name: str, factory: Callable[[], Compressor]) -> None:
    """Register a codec factory under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory


#: prefix that routes codec lookups to the graph registry
GRAPH_CODEC_PREFIX = "graph:"


def get_codec(name: str) -> Compressor:
    """Instantiate the codec registered under ``name``.

    Names of the form ``graph:<graph-name>`` resolve through the graph
    registry (:mod:`repro.graphs`) instead of the flat-codec table. The
    import is deferred to the call so that pool workers — which only ever
    see this function — reconstruct trained graph codecs without any
    registration side channel.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        if name.startswith(GRAPH_CODEC_PREFIX):
            from repro.graphs.registry import resolve_graph_codec

            codec = resolve_graph_codec(name[len(GRAPH_CODEC_PREFIX):])
            if codec is not None:
                return codec
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def available_codecs() -> List[str]:
    """Names of all registered codecs, sorted."""
    return sorted(_REGISTRY)

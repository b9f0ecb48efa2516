"""A minimal RPC channel with optional payload compression.

Datacenter services "follow an RPC-based approach to interact with each
other" (Section II-A); compressing RPC payloads trades compute (and latency)
for network bytes. The channel models a link with fixed bandwidth and
propagation delay and accounts both sides' compression work.

Resilience: every message may carry a per-message timeout and a
:class:`~repro.resilience.retry.RetryPolicy` (capped exponential backoff,
deterministic jitter). A dropped, timed-out, or corrupted attempt is
retried within the budget; exhaustion raises :class:`RpcExhaustedError`.
All time is modeled (the channel's latency math), never wall-clock, so
retry behaviour is deterministic. A fault injector attached via
:class:`~repro.faults.wrappers.FaultyChannel` perturbs the wire *inside*
the retry loop -- one fault decision per attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.codecs.base import Compressor, get_codec
from repro.codecs.base import CorruptDataError, StageCounters
from repro.obs.instrument import (
    record_recovery,
    record_rpc_failure,
    record_rpc_message,
    record_rpc_retry,
)
from repro.obs.spans import span
from repro.obs.state import OBS_STATE
from repro.perfmodel.machine import DEFAULT_MACHINE
from repro.resilience.retry import RetryPolicy


class RpcError(Exception):
    """Base class for channel-level delivery failures."""


class ChannelDropError(RpcError):
    """The wire dropped the message (injected or modeled loss)."""

    def __init__(self, elapsed_seconds: float = 0.0):
        super().__init__("message dropped")
        self.elapsed_seconds = elapsed_seconds


class RpcTimeoutError(RpcError):
    """One attempt's modeled end-to-end time exceeded the timeout."""

    def __init__(self, message: str, elapsed_seconds: float = 0.0):
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds


class RpcCorruptPayloadError(RpcError):
    """The received payload failed decompression validation."""

    def __init__(self, message: str, elapsed_seconds: float = 0.0):
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds


class RpcExhaustedError(RpcError):
    """Delivery abandoned: the retry budget is spent."""


@dataclass
class RpcStats:
    """Per-channel accounting."""

    messages: int = 0
    raw_bytes: int = 0
    wire_bytes: int = 0
    compress_seconds: float = 0.0
    decompress_seconds: float = 0.0
    transfer_seconds: float = 0.0
    compress_counters: StageCounters = field(default_factory=StageCounters)
    decompress_counters: StageCounters = field(default_factory=StageCounters)
    # -- resilience accounting --
    retries: int = 0
    drops: int = 0
    timeouts: int = 0
    corrupt_payloads: int = 0
    #: messages delivered only after at least one retry
    recovered_messages: int = 0
    #: messages abandoned after the retry budget
    failed_messages: int = 0
    backoff_seconds: float = 0.0

    @property
    def wire_ratio(self) -> float:
        """Raw bytes per wire byte (higher = more effective compression).

        With no traffic at all the ratio is the neutral 1.0; if raw bytes
        were sent but zero bytes hit the wire (degenerate empty-payload
        compression) the ratio is unbounded, reported as ``inf`` rather
        than a misleading 1.0.
        """
        if self.wire_bytes:
            return self.raw_bytes / self.wire_bytes
        return float("inf") if self.raw_bytes else 1.0


class Channel:
    """A point-to-point link carrying optionally compressed messages."""

    def __init__(
        self,
        bandwidth_bytes_per_second: float = 1.25e9,  # 10 Gb/s
        propagation_seconds: float = 50e-6,
        codec: Optional[Compressor] = None,
        level: int = 1,
        compress: bool = True,
        timeout_seconds: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.bandwidth = bandwidth_bytes_per_second
        self.propagation_seconds = propagation_seconds
        self.codec = codec if codec is not None else get_codec("zstd")
        self.level = level
        self.compress = compress
        #: per-attempt modeled deadline; None = wait forever
        self.timeout_seconds = timeout_seconds
        #: retry budget and backoff shape; None = fail on first error
        self.retry = retry
        #: a fault injector attached by :class:`~repro.faults.FaultyChannel`
        self.injector = None
        self.stats = RpcStats()

    def send(self, payload: bytes) -> Tuple[bytes, float]:
        """Deliver ``payload``; returns (received_bytes, end_to_end_seconds).

        End-to-end time = sender compression + wire transfer + receiver
        decompression (the latency sum ADS1 must keep within its SLO),
        plus any retry backoff the message needed.
        """
        if OBS_STATE.enabled:
            with span("rpc.send", codec=self.codec.name, level=self.level):
                return self._send(payload)
        return self._send(payload)

    def _send(self, payload: bytes) -> Tuple[bytes, float]:
        self.stats.messages += 1
        self.stats.raw_bytes += len(payload)
        message_key = self.stats.messages
        elapsed_total = 0.0
        attempt = 1
        while True:
            try:
                received, attempt_seconds = self._attempt(payload)
            except (ChannelDropError, RpcTimeoutError, RpcCorruptPayloadError) as exc:
                elapsed_total += exc.elapsed_seconds
                reason = self._classify(exc)
                budget = self.retry.max_attempts if self.retry is not None else 1
                if attempt >= budget:
                    self.stats.failed_messages += 1
                    if OBS_STATE.enabled:
                        record_rpc_failure(reason)
                    if self.retry is None:
                        raise
                    raise RpcExhaustedError(
                        f"message {message_key} failed after {attempt} "
                        f"attempts (last: {reason})"
                    ) from exc
                backoff = self.retry.backoff_seconds(attempt, key=message_key)
                self.stats.retries += 1
                self.stats.backoff_seconds += backoff
                elapsed_total += backoff
                if OBS_STATE.enabled:
                    record_rpc_retry(reason)
                attempt += 1
                continue
            elapsed_total += attempt_seconds
            if attempt > 1:
                self.stats.recovered_messages += 1
                if OBS_STATE.enabled:
                    record_recovery("rpc", elapsed_total)
            return received, elapsed_total

    def _classify(self, exc: RpcError) -> str:
        if isinstance(exc, ChannelDropError):
            self.stats.drops += 1
            return "drop"
        if isinstance(exc, RpcTimeoutError):
            self.stats.timeouts += 1
            return "timeout"
        self.stats.corrupt_payloads += 1
        return "corrupt"

    def _attempt(self, payload: bytes) -> Tuple[bytes, float]:
        """One delivery attempt; raises the typed retryable errors."""
        elapsed = self.propagation_seconds
        compress_seconds = decompress_seconds = 0.0
        if self.compress:
            result = self.codec.compress(payload, self.level)
            self.stats.compress_counters.merge(result.counters)
            compress_seconds = DEFAULT_MACHINE.compress_seconds(
                self.codec.name, result.counters
            )
            self.stats.compress_seconds += compress_seconds
            elapsed += compress_seconds
            wire = result.data
        else:
            wire = payload
        wire, elapsed = self._transmit_effects(wire, elapsed)
        self.stats.wire_bytes += len(wire)
        transfer = len(wire) / self.bandwidth
        self.stats.transfer_seconds += transfer
        elapsed += transfer
        self._check_timeout(elapsed)
        if self.compress:
            try:
                restored = self.codec.decompress(wire)
            except CorruptDataError as exc:
                raise RpcCorruptPayloadError(str(exc), elapsed) from exc
            self.stats.decompress_counters.merge(restored.counters)
            decompress_seconds = DEFAULT_MACHINE.decompress_seconds(
                self.codec.name, restored.counters
            )
            self.stats.decompress_seconds += decompress_seconds
            elapsed += decompress_seconds
            self._check_timeout(elapsed)
            received = restored.data
        else:
            received = wire
        if OBS_STATE.enabled:
            record_rpc_message(
                self.codec.name if self.compress else "none",
                raw_bytes=len(payload),
                wire_bytes=len(wire),
                compress_seconds=compress_seconds,
                transfer_seconds=transfer,
                decompress_seconds=decompress_seconds,
            )
        return received, elapsed

    def _transmit_effects(
        self, wire: bytes, elapsed: float
    ) -> Tuple[bytes, float]:
        """Apply injected wire faults (no-op without an injector)."""
        if self.injector is None:
            return wire, elapsed
        effects = self.injector.on_wire("rpc.wire", wire)
        if effects.extra_seconds:
            elapsed += effects.extra_seconds
            self._check_timeout(elapsed)
        if effects.dropped:
            # a drop is only *observed* at the deadline (or, with no
            # timeout, after the modeled send cost already spent)
            waited = (
                self.timeout_seconds
                if self.timeout_seconds is not None
                else elapsed
            )
            raise ChannelDropError(elapsed_seconds=max(waited, elapsed))
        return effects.payload, elapsed

    def _check_timeout(self, elapsed: float) -> None:
        if self.timeout_seconds is not None and elapsed > self.timeout_seconds:
            raise RpcTimeoutError(
                f"attempt exceeded {self.timeout_seconds * 1e3:.1f} ms "
                f"deadline ({elapsed * 1e3:.1f} ms modeled)",
                self.timeout_seconds,
            )

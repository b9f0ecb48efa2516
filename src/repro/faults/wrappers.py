"""Fault-injecting wrappers for codecs, channels, and stored blocks.

:class:`FaultyCodec` wraps any :class:`~repro.codecs.base.Compressor` and
makes its calls fail, slow down, or receive corrupted payloads according
to the injector's plan. :class:`FaultyChannel` attaches an injector to an
existing RPC :class:`~repro.services.rpc.Channel` (the channel consults
``self.injector`` inside its transmit path, so injected faults land
*inside* the retry loop, one decision per attempt). ``scrub_sstable``
models storage-media decay by corrupting an SST's blocks in the stored
file -- a *permanent* fault, unlike the per-call transient ones.
"""

from __future__ import annotations

from typing import List, Optional

from repro.codecs.base import CodecError, CompressResult, Compressor, DecompressResult
from repro.faults.plan import FaultInjector
from repro.resilience.clock import SimClock


class InjectedCodecError(CodecError):
    """A simulated codec failure (crash, OOM, version skew) from a plan."""


class FaultyCodec(Compressor):
    """Wraps a codec; faults fire per call, payload bytes stay untouched
    at rest (a corrupted decompress corrupts only that call's view)."""

    def __init__(
        self,
        inner: Compressor,
        injector: FaultInjector,
        site: Optional[str] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        self.inner = inner
        self.injector = injector
        self.site = site if site is not None else f"codec.{inner.name}"
        #: advanced by ``slow`` faults so breaker cooldowns see the stall
        self.clock = clock
        self.name = inner.name
        self.min_level = inner.min_level
        self.max_level = inner.max_level
        self.default_level = inner.default_level
        self.injected_failures = 0
        self.injected_slow_seconds = 0.0
        self.corrupted_calls = 0

    def supports_dictionaries(self) -> bool:
        return self.inner.supports_dictionaries()

    def _apply(self, effects) -> None:
        if effects.slow_seconds:
            self.injected_slow_seconds += effects.slow_seconds
            if self.clock is not None:
                self.clock.advance(effects.slow_seconds)
        if effects.fail:
            self.injected_failures += 1
            raise InjectedCodecError(
                f"injected {self.name} failure at {self.site}"
            )

    def compress(
        self,
        data: bytes,
        level: Optional[int] = None,
        dictionary: Optional[bytes] = None,
    ) -> CompressResult:
        effects = self.injector.on_codec_call(self.site + ".compress")
        self._apply(effects)
        return self.inner.compress(data, level, dictionary=dictionary)

    def decompress(
        self,
        payload: bytes,
        dictionary: Optional[bytes] = None,
        max_output_bytes: Optional[int] = None,
    ) -> DecompressResult:
        effects = self.injector.on_codec_call(
            self.site + ".decompress", payload
        )
        self._apply(effects)
        if effects.payload is not payload and effects.payload != payload:
            self.corrupted_calls += 1
        return self.inner.decompress(
            effects.payload,
            dictionary=dictionary,
            max_output_bytes=max_output_bytes,
        )


class FaultyChannel:
    """Attaches an injector to an existing Channel; delegates everything.

    The channel's own transmit path applies the injector's wire effects
    (drop, latency spike, payload corruption) per attempt, so its retry
    and timeout machinery is exercised exactly as a lossy network would.
    """

    def __init__(
        self,
        channel,
        injector: FaultInjector,
        site: str = "rpc.wire",
    ) -> None:
        self.channel = channel
        channel.injector = injector
        channel.fault_site = site

    def send(self, payload: bytes):
        return self.channel.send(payload)

    def __getattr__(self, name: str):
        return getattr(self.channel, name)


def scrub_sstable(
    storage,
    table,
    injector: FaultInjector,
    site: str = "kvstore.storage",
) -> List[int]:
    """Permanently corrupt a stored SST's blocks per the plan.

    Returns the indices of the blocks that were damaged. Models media
    decay: the damage is written into the block's byte range of the file
    on ``storage``, so the next read and the next reopen both see it, and
    only redundancy (an older level) or a rewrite recovers it. The file
    layout never moves: a cut block reads zeros past the cut, and damage
    past the block's end is dropped.
    """
    damaged: List[int] = []
    image = storage.view(table.file_name)
    for block_index, (offset, length) in enumerate(table.block_spans):
        block = bytes(image[offset : offset + length])
        corrupted, kinds = injector.corrupt_payload(site, block)
        if kinds:
            storage.decay(
                table.file_name, offset, corrupted[:length].ljust(length, b"\0")
            )
            damaged.append(block_index)
    return damaged


def scrub_cache(
    server,
    injector: FaultInjector,
    site: str = "cache.payload",
) -> List[bytes]:
    """Permanently corrupt a cache server's resident entries per the plan.

    Returns the damaged keys. The entry's compressed flag is preserved, so
    the next client get runs verified-decompress over the damaged bytes
    and takes the quarantine-and-miss recovery path.
    """
    damaged: List[bytes] = []
    for key in server.stored_keys():
        __, __, payload = server.stored_entry(key)
        corrupted, kinds = injector.corrupt_payload(site, payload)
        if kinds:
            server.replace_stored(key, corrupted)
            damaged.append(key)
    return damaged

"""Managed Compression: a stateful dictionary-management service.

The paper (Section II-B) describes Managed Compression as exposing "a
stateless interface to users while the service keeps the states to train
dictionaries using previous samples". This module implements that service:

- callers just say ``compress(use_case, data)`` / ``decompress(use_case,
  blob)``;
- the service samples traffic per use case, periodically (re)trains a
  dictionary from recent samples, and versions every dictionary so blobs
  compressed under older dictionaries remain decodable;
- blobs are self-describing (use case config version travels with the
  payload).

Resilience: decompressing a blob whose dictionary version is gone (retired
past the retention window, or lost to an injected fault) raises the typed
:class:`DictionaryRetiredError`; a ``retired_handler`` hook lets the owner
rebuild the blob from its source of truth instead of crashing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.codecs import Compressor, get_codec, train_dictionary
from repro.codecs.base import CodecError


@dataclass(frozen=True)
class ManagedBlob:
    """A compressed payload plus the state needed to decompress it."""

    use_case: str
    dictionary_version: int  # 0 = no dictionary
    payload: bytes


class DictionaryRetiredError(CodecError):
    """The blob names a dictionary version the service no longer holds.

    Carries enough context (``use_case``, ``version``, ``available``) for
    the caller to decide between re-fetching the blob's source data and
    declaring it rotted.
    """

    def __init__(
        self, use_case: str, version: int, available: Tuple[int, ...]
    ) -> None:
        super().__init__(
            f"dictionary version {version} for {use_case!r} has been "
            f"retired (available: {list(available) or 'none'})"
        )
        self.use_case = use_case
        self.version = version
        self.available = available


@dataclass
class UseCaseStats:
    """Accounting per use case."""

    compress_calls: int = 0
    decompress_calls: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0
    retrains: int = 0
    # -- resilience accounting --
    #: decompress calls that hit a retired/lost dictionary version
    retired_blobs: int = 0
    #: retired blobs recovered through the retired_handler hook
    recoveries: int = 0

    @property
    def ratio(self) -> float:
        """Compression ratio, following the ``RpcStats.wire_ratio`` convention.

        Neutral 1.0 only with no traffic; ``inf`` when raw bytes went in
        but zero compressed bytes came out (degenerate all-empty inputs).
        """
        if self.compressed_bytes:
            return self.raw_bytes / self.compressed_bytes
        return float("inf") if self.raw_bytes else 1.0


@dataclass
class _UseCaseState:
    level: int
    dictionary_size: int
    retrain_interval: int
    max_versions: int
    samples: Deque[bytes] = field(default_factory=lambda: deque(maxlen=256))
    #: version -> dictionary content; version 0 is "no dictionary"
    dictionaries: Dict[int, bytes] = field(default_factory=dict)
    current_version: int = 0
    calls_since_training: int = 0
    stats: UseCaseStats = field(default_factory=UseCaseStats)


class ManagedCompression:
    """The stateful service behind the stateless compress/decompress API."""

    def __init__(
        self,
        codec: Optional[Compressor] = None,
        sample_every: int = 4,
        retired_handler: Optional[
            Callable[[DictionaryRetiredError], Optional[bytes]]
        ] = None,
    ) -> None:
        self.codec = codec if codec is not None else get_codec("zstd")
        if not self.codec.supports_dictionaries():
            raise CodecError(
                f"managed compression needs a dictionary-capable codec, "
                f"not {self.codec.name}"
            )
        self.sample_every = max(1, sample_every)
        #: called when a blob's dictionary version is gone; returns the
        #: recovered plaintext (from the blob's source of truth) or None
        #: to let the error propagate
        self.retired_handler = retired_handler
        self._use_cases: Dict[str, _UseCaseState] = {}

    def register_use_case(
        self,
        name: str,
        level: int = 3,
        dictionary_size: int = 8192,
        retrain_interval: int = 64,
        max_versions: int = 4,
    ) -> None:
        """Declare a use case (idempotent; re-registering keeps state)."""
        if name not in self._use_cases:
            self._use_cases[name] = _UseCaseState(
                level=level,
                dictionary_size=dictionary_size,
                retrain_interval=retrain_interval,
                max_versions=max_versions,
            )

    def _state(self, use_case: str) -> _UseCaseState:
        if use_case not in self._use_cases:
            self.register_use_case(use_case)
        return self._use_cases[use_case]

    # -- the stateless-looking API -------------------------------------------

    def compress(self, use_case: str, data: bytes) -> ManagedBlob:
        """Compress under the use case's current dictionary (if any)."""
        state = self._state(use_case)
        state.stats.compress_calls += 1
        state.calls_since_training += 1
        if state.stats.compress_calls % self.sample_every == 0:
            state.samples.append(bytes(data))
        if (
            state.calls_since_training >= state.retrain_interval
            and len(state.samples) >= 8
        ):
            self._retrain(use_case)
        dictionary = state.dictionaries.get(state.current_version)
        # a lost current dictionary degrades to dictionary-less compression,
        # and the blob must say so (version 0), not name the missing version
        version = state.current_version if dictionary is not None else 0
        result = self.codec.compress(data, state.level, dictionary=dictionary)
        state.stats.raw_bytes += len(data)
        state.stats.compressed_bytes += len(result.data)
        return ManagedBlob(use_case, version, result.data)

    def decompress(self, blob: ManagedBlob) -> bytes:
        """Decompress a blob under the dictionary version it names.

        A missing (retired or lost) version raises the typed
        :class:`DictionaryRetiredError` -- unless a ``retired_handler`` is
        installed and can rebuild the plaintext, in which case the call
        succeeds and the recovery is counted.
        """
        state = self._state(blob.use_case)
        state.stats.decompress_calls += 1
        if blob.dictionary_version == 0:
            dictionary = None
        else:
            dictionary = state.dictionaries.get(blob.dictionary_version)
            if dictionary is None:
                state.stats.retired_blobs += 1
                error = DictionaryRetiredError(
                    blob.use_case,
                    blob.dictionary_version,
                    tuple(sorted(state.dictionaries)),
                )
                if self.retired_handler is not None:
                    recovered = self.retired_handler(error)
                    if recovered is not None:
                        state.stats.recoveries += 1
                        return recovered
                raise error
        return self.codec.decompress(blob.payload, dictionary=dictionary).data

    # -- training --------------------------------------------------------------

    def _retrain(self, use_case: str) -> None:
        state = self._state(use_case)
        dictionary = train_dictionary(
            list(state.samples), max_size=state.dictionary_size
        )
        state.calls_since_training = 0
        if not len(dictionary):
            return
        state.current_version += 1
        state.dictionaries[state.current_version] = dictionary.content
        state.stats.retrains += 1
        # Retire versions beyond the retention window (old blobs re-compress
        # or rot, as any versioned-dictionary deployment must decide).
        retired = [
            version
            for version in state.dictionaries
            if version <= state.current_version - state.max_versions
        ]
        for version in retired:
            del state.dictionaries[version]

    def drop_dictionary(self, use_case: str, version: int) -> bool:
        """Lose one dictionary version (fault injection / forced retire).

        Returns True if the version existed. Blobs naming it now take the
        :class:`DictionaryRetiredError` path; compression falls back to
        dictionary-less if the *current* version is the one dropped.
        """
        state = self._state(use_case)
        if version not in state.dictionaries:
            return False
        del state.dictionaries[version]
        return True

    # -- introspection -----------------------------------------------------------

    def stats(self, use_case: str) -> UseCaseStats:
        return self._state(use_case).stats

    def current_version(self, use_case: str) -> int:
        return self._state(use_case).current_version

    def available_versions(self, use_case: str) -> Tuple[int, ...]:
        return tuple(sorted(self._state(use_case).dictionaries))

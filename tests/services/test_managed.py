"""Managed Compression service tests."""

import pytest

from repro.codecs import get_codec
from repro.codecs.base import CodecError
from repro.corpus import CACHE1_TYPES, generate_cache_items
from repro.services.managed import ManagedCompression


def _payloads(count, seed=7):
    return [p for __, p in generate_cache_items(CACHE1_TYPES, count, seed=seed)]


class TestStatelessInterface:
    def test_roundtrip_without_training(self):
        service = ManagedCompression()
        blob = service.compress("logs", b"some log line " * 20)
        assert service.decompress(blob) == b"some log line " * 20
        assert blob.dictionary_version == 0

    def test_roundtrip_across_many_items(self):
        service = ManagedCompression()
        service.register_use_case("items", retrain_interval=32)
        payloads = _payloads(120)
        blobs = [service.compress("items", p) for p in payloads]
        for blob, payload in zip(blobs, payloads):
            assert service.decompress(blob) == payload

    def test_auto_registration(self):
        service = ManagedCompression()
        blob = service.compress("never_registered", b"x" * 200)
        assert service.decompress(blob) == b"x" * 200

    def test_non_dictionary_codec_rejected(self):
        with pytest.raises(CodecError):
            ManagedCompression(codec=get_codec("lz4"))


class TestTraining:
    def test_automatic_retraining_kicks_in(self):
        service = ManagedCompression(sample_every=1)
        service.register_use_case("typed", retrain_interval=16)
        for payload in _payloads(40):
            service.compress("typed", payload)
        assert service.current_version("typed") >= 1
        assert service.stats("typed").retrains >= 1

    def test_dictionary_improves_ratio(self):
        payloads = _payloads(200)
        untrained = ManagedCompression(sample_every=1)
        untrained.register_use_case("u", retrain_interval=10**9)  # never train
        trained = ManagedCompression(sample_every=1)
        trained.register_use_case("u", retrain_interval=16)
        warmup, test = payloads[:100], payloads[100:]
        for p in warmup:
            trained.compress("u", p)
        # measure both services on the same held-out set
        for p in test:
            untrained.compress("u", p)
        before = trained.stats("u").compressed_bytes
        for p in test:
            trained.compress("u", p)
        trained_bytes = trained.stats("u").compressed_bytes - before
        assert trained_bytes < untrained.stats("u").compressed_bytes

    def test_old_blobs_decode_after_retrain(self):
        service = ManagedCompression(sample_every=1)
        service.register_use_case("v", retrain_interval=16, max_versions=16)
        payloads = _payloads(80)
        early_blob = None
        for index, payload in enumerate(payloads):
            blob = service.compress("v", payload)
            if index == 20:
                early_blob = (blob, payload)
        assert service.current_version("v") >= 1
        blob, payload = early_blob
        assert service.decompress(blob) == payload

    def test_retired_version_raises(self):
        service = ManagedCompression(sample_every=1)
        service.register_use_case("w", retrain_interval=8, max_versions=1)
        payloads = _payloads(60)
        first_trained_blob = None
        for payload in payloads:
            blob = service.compress("w", payload)
            if blob.dictionary_version == 1 and first_trained_blob is None:
                first_trained_blob = (blob, payload)
        if first_trained_blob is not None and service.current_version("w") > 1:
            blob, __ = first_trained_blob
            if 1 not in service.available_versions("w"):
                with pytest.raises(CodecError):
                    service.decompress(blob)

    def test_version_retention_window(self):
        service = ManagedCompression(sample_every=1)
        service.register_use_case("x", retrain_interval=8, max_versions=2)
        for payload in _payloads(120):
            service.compress("x", payload)
        versions = service.available_versions("x")
        assert len(versions) <= 2

    def test_stats_accounting(self):
        service = ManagedCompression()
        payloads = _payloads(20)
        blobs = [service.compress("s", p) for p in payloads]
        for blob in blobs:
            service.decompress(blob)
        stats = service.stats("s")
        assert stats.compress_calls == 20
        assert stats.decompress_calls == 20
        assert stats.raw_bytes == sum(len(p) for p in payloads)
        assert stats.ratio > 1.0


class TestDictionaryLossEdgeCases:
    def _trained_service(self):
        service = ManagedCompression(sample_every=1)
        service.register_use_case(
            "loss", retrain_interval=8, max_versions=4
        )
        for payload in _payloads(16):
            service.compress("loss", payload)
        assert service.current_version("loss") >= 1
        return service

    def test_drop_current_version_degrades_to_dictionaryless(self):
        service = self._trained_service()
        current = service.current_version("loss")
        payload = _payloads(1, seed=11)[0]
        dictionary_blob = service.compress("loss", payload)
        assert dictionary_blob.dictionary_version == current

        assert service.drop_dictionary("loss", current) is True
        assert current not in service.available_versions("loss")

        # new blobs must say "no dictionary" (version 0), not name the
        # missing version -- and still roundtrip
        raw_blob = service.compress("loss", payload)
        assert raw_blob.dictionary_version == 0
        assert service.decompress(raw_blob) == payload

        # old blobs naming the dropped version take the typed error path
        from repro.services.managed import DictionaryRetiredError

        with pytest.raises(DictionaryRetiredError) as excinfo:
            service.decompress(dictionary_blob)
        assert excinfo.value.version == current
        assert service.stats("loss").retired_blobs == 1

    def test_drop_missing_version_returns_false(self):
        service = self._trained_service()
        assert service.drop_dictionary("loss", 999) is False

    def test_retrain_with_too_few_samples_keeps_version(self):
        # eight tiny samples train an empty dictionary: the retrain must be
        # a no-op on the version chain, not publish a useless version
        service = ManagedCompression(sample_every=1)
        service.register_use_case("tiny", retrain_interval=1)
        for __ in range(8):
            service.compress("tiny", b"ab")
        assert service.current_version("tiny") == 0
        assert service.stats("tiny").retrains == 0
        assert service.available_versions("tiny") == ()

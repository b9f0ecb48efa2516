"""Ads inference service and RPC channel tests."""

import pytest

from repro.services import AdsInferenceService
from repro.services.rpc import Channel


class TestChannel:
    def test_payload_delivered_intact(self):
        channel = Channel(level=1)
        payload = b"request body " * 100
        received, elapsed = channel.send(payload)
        assert received == payload
        assert elapsed > 0

    def test_compression_reduces_wire_bytes(self):
        compressed = Channel(level=3)
        raw = Channel(compress=False)
        payload = b'{"field": "value", "n": 1}' * 200
        compressed.send(payload)
        raw.send(payload)
        assert compressed.stats.wire_bytes < raw.stats.wire_bytes
        assert raw.stats.wire_bytes == len(payload)

    def test_uncompressed_channel_has_no_codec_time(self):
        channel = Channel(compress=False)
        channel.send(b"x" * 1000)
        assert channel.stats.compress_seconds == 0.0
        assert channel.stats.decompress_seconds == 0.0

    def test_latency_includes_all_components(self):
        channel = Channel(level=1, propagation_seconds=1e-3)
        __, elapsed = channel.send(b"payload " * 500)
        expected = (
            channel.propagation_seconds
            + channel.stats.compress_seconds
            + channel.stats.transfer_seconds
            + channel.stats.decompress_seconds
        )
        assert elapsed == pytest.approx(expected)

    def test_slow_link_favors_compression(self):
        """On a slow link, compressed transfer beats raw end-to-end."""
        payload = b'{"metric": 1, "labels": ["a", "b"]}' * 400
        slow_raw = Channel(bandwidth_bytes_per_second=5e6, compress=False)
        slow_comp = Channel(bandwidth_bytes_per_second=5e6, level=1)
        __, raw_time = slow_raw.send(payload)
        __, comp_time = slow_comp.send(payload)
        assert comp_time < raw_time

    def test_wire_ratio(self):
        channel = Channel(level=3)
        channel.send(b"abcd" * 1000)
        assert channel.stats.wire_ratio > 5


class TestAdsInferenceService:
    def test_serving_batch_counts(self):
        service = AdsInferenceService(level=1)
        stats = service.serve_batch("B", 3, seed=1)
        assert stats.requests == 3
        assert len(stats.latencies_seconds) == 3

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            AdsInferenceService().serve_batch("X", 1)

    def test_wire_ratio_above_one(self):
        stats = AdsInferenceService(level=1).serve_batch("B", 2, seed=2)
        assert stats.wire_ratio > 1.0

    def test_sparser_model_higher_wire_ratio(self):
        """Fig. 12: model A (sparser) compresses better than model B."""
        service_a = AdsInferenceService(level=3)
        service_b = AdsInferenceService(level=3)
        ratio_a = service_a.serve_batch("A", 2, seed=3).wire_ratio
        ratio_b = service_b.serve_batch("B", 2, seed=3).wire_ratio
        assert ratio_a > ratio_b

    def test_higher_level_adds_latency(self):
        """Section IV-D: compression compute adds to request latency."""
        fast = AdsInferenceService(level=-5).serve_batch("B", 2, seed=4)
        slow = AdsInferenceService(level=9).serve_batch("B", 2, seed=4)
        assert slow.mean_latency_seconds > fast.mean_latency_seconds

    def test_compression_cycle_share_band(self):
        """ADS1's Zstd share calibrates to the low single digits (Fig. 6)."""
        stats = AdsInferenceService(level=1).serve_batch("B", 3, seed=5)
        assert 0.02 < stats.zstd_cycle_share < 0.12

    def test_uncompressed_service_has_zero_compression_cycles(self):
        service = AdsInferenceService(compress_requests=False)
        stats = service.serve_batch("B", 2, seed=6)
        assert stats.compression_cycles == 0.0


class TestWireRatioEdgeCases:
    """Regression: wire_ratio semantics when wire_bytes == 0."""

    def test_idle_channel_is_neutral(self):
        assert Channel(level=1).stats.wire_ratio == 1.0

    def test_raw_bytes_without_wire_bytes_is_infinite(self):
        """Raw traffic that produced zero wire bytes must not report the
        neutral 1.0 — the saving is unbounded, not absent."""
        from repro.services.rpc import RpcStats

        stats = RpcStats(messages=1, raw_bytes=4096, wire_bytes=0)
        assert stats.wire_ratio == float("inf")

    def test_normal_traffic_unchanged(self):
        channel = Channel(level=3)
        channel.send(b"abcd" * 1000)
        raw, wire = channel.stats.raw_bytes, channel.stats.wire_bytes
        assert channel.stats.wire_ratio == pytest.approx(raw / wire)

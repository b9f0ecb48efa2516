"""CompressionGateway: admission, degradation, breakers, raw fallback."""

import pytest

from repro import obs
from repro.faults import FaultInjector, FaultPlan, FaultSpec, FaultyCodec
from repro.codecs import get_codec
from repro.resilience.clock import SimClock
from repro.serving.admission import ADMIT, SHED
from repro.serving.degrade import DegradationLadder, Rung
from repro.serving.gateway import (
    OVERHEAD_SECONDS,
    CodecCache,
    RAW_COPY_BANDWIDTH,
    CompressionGateway,
)
from repro.serving.slos import WINDOW_DEGRADED, WINDOW_VERDICTS, WindowRecorder
from repro.serving.queue import ServingRequest
from repro.core.config import CompressionConfig


def _ladder():
    def rung(algorithm, level, spb, ratio, cost):
        return Rung(
            config=CompressionConfig(algorithm=algorithm, level=level),
            seconds_per_byte=spb,
            ratio=ratio,
            total_cost=cost,
        )

    return DegradationLadder(
        [
            rung("zstd", 6, 4e-9, 5.0, 1.0),
            rung("zstd", 1, 2e-9, 4.0, 1.2),
            rung("lz4", 1, 1e-9, 3.0, 1.5),
        ],
        thresholds=[0.3, 0.7],
    )


def _request(request_id, tenant="t", size=2048, arrival=0.0):
    stamp = b"gateway payload %d " % request_id
    payload = stamp * (size // len(stamp) + 1)
    return ServingRequest(
        request_id=request_id,
        tenant=tenant,
        payload=payload[:size],
        arrival=arrival,
    )


def _always_fail_injector():
    return FaultInjector(
        FaultPlan("always", (FaultSpec("codec", "fail", 1.0),)), seed=1
    )


class TestDataPath:
    def test_admit_serve_roundtrip_accounting(self):
        gateway = CompressionGateway(_ladder(), capacity=16)
        for i in range(4):
            assert gateway.submit(_request(i)) == ADMIT
        served = gateway.serve_batch(0.0, 10)
        # all four admitted come back served, none expired on the way
        assert len(served) == 4
        assert gateway.queue.depth() == 0
        for item in served:
            assert item.rung_index == 0  # pressure 4/16 under 0.3
            assert not item.raw_fallback
            assert 0 < item.bytes_out < item.size
            assert item.service_seconds > 0
        assert sum(s.size for s in served) == 4 * 2048

    def test_serve_respects_max_count(self):
        gateway = CompressionGateway(_ladder(), capacity=16)
        for i in range(6):
            gateway.submit(_request(i))
        assert len(gateway.serve_batch(0.0, 2)) == 2
        assert gateway.queue.depth() == 4

    def test_service_scale_multiplies_modeled_time(self):
        plain = CompressionGateway(_ladder(), capacity=16)
        scaled = CompressionGateway(_ladder(), capacity=16, service_scale=100.0)
        # one record per gateway: a gateway writes its outcome into the
        # request it serves, so a shared object would compare with itself
        plain.submit(_request(0))
        scaled.submit(_request(0))
        base = plain.serve_batch(0.0, 1)[0]
        slow = scaled.serve_batch(0.0, 1)[0]
        assert slow is not base
        assert slow.bytes_out == base.bytes_out  # output is never scaled
        # the fixed per-request overhead is not subject to host contention
        overhead = OVERHEAD_SECONDS
        assert slow.service_seconds - overhead == pytest.approx(
            (base.service_seconds - overhead) * 100.0
        )

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CompressionGateway(_ladder(), capacity=0)
        with pytest.raises(ValueError):
            CompressionGateway(_ladder(), service_scale=0.0)


class TestRequestRecord:
    """``serve_batch`` hands back the very objects ``submit`` took, with
    every outcome field written by the serve."""

    @staticmethod
    def _serve(gateway, requests, now):
        for request in requests:
            # poison the outcome so each field the test reads was written
            request.rung_index = -1
            request.rung_label = "unset"
            request.wait_seconds = request.service_seconds = -1.0
            request.bytes_out = -1
            request.raw_fallback = None
            assert gateway.submit(request) == ADMIT
        served = gateway.serve_batch(now, len(requests))
        assert len(served) == len(requests)
        for request, record in zip(requests, served):  # one tenant: FIFO
            assert record is request
        return served

    def test_clean_serve(self):
        gateway = CompressionGateway(_ladder(), capacity=16)
        [served] = self._serve(gateway, [_request(0, arrival=0.25)], 1.0)
        assert (served.rung_index, served.rung_label) == (0, "zstd-6")
        assert not served.degraded
        assert served.wait_seconds == 0.75
        assert served.service_seconds > OVERHEAD_SECONDS
        compressed = get_codec("zstd").compress(served.payload, 6).data
        assert served.bytes_out == len(compressed)
        assert served.raw_fallback is False

    def test_degraded_serve(self):
        gateway = CompressionGateway(_ladder(), capacity=10)
        requests = [_request(i, arrival=0.5) for i in range(8)]
        head = self._serve(gateway, requests, 2.0)[0]  # deep queue: last rung
        assert (head.rung_index, head.rung_label) == (2, "lz4-1")
        assert head.degraded
        assert head.wait_seconds == 1.5
        assert head.service_seconds > OVERHEAD_SECONDS
        compressed = get_codec("lz4").compress(head.payload, 1).data
        assert head.bytes_out == len(compressed)
        assert head.raw_fallback is False

    def test_raw_fallback_serve(self):
        clock = SimClock()
        gateway = CompressionGateway(
            _ladder(),
            capacity=16,
            clock=clock,
            codec_factory=lambda name: FaultyCodec(
                get_codec(name), _always_fail_injector(), clock=clock
            ),
        )
        [served] = self._serve(gateway, [_request(0)], 0.5)
        assert (served.rung_index, served.rung_label) == (0, "zstd-6")
        assert served.wait_seconds == 0.5
        assert served.raw_fallback is True
        assert served.bytes_out == served.size
        assert served.service_seconds == pytest.approx(
            served.size / RAW_COPY_BANDWIDTH + OVERHEAD_SECONDS
        )


class TestCodecCache:
    def test_repeats_are_compressed_once_and_served_identically(self):
        import dataclasses

        cache = CodecCache()
        cached = CompressionGateway(
            _ladder(), capacity=16, codec_cache=cache, degradation_enabled=False
        )
        plain = CompressionGateway(
            _ladder(), capacity=16, degradation_enabled=False
        )
        # payloads A, A, B in one batch, then A again in the next
        for gateway in (cached, plain):
            for request_id, body in enumerate((0, 0, 1, 0)):
                gateway.submit(
                    dataclasses.replace(_request(body), request_id=request_id)
                )
        served = [
            [
                (s.bytes_out, s.service_seconds)
                for s in gateway.serve_batch(0.0, 3) + gateway.serve_batch(0.0, 1)
            ]
            for gateway in (cached, plain)
        ]
        assert (cache.misses, cache.hits) == (2, 2)
        assert served[0] == served[1] and len(served[0]) == 4

    def test_injected_codecs_bypass_the_cache(self):
        cache = CodecCache()
        clock = SimClock()
        gateway = CompressionGateway(
            _ladder(),
            capacity=16,
            clock=clock,
            codec_cache=cache,
            codec_factory=lambda name: FaultyCodec(
                get_codec(name), _always_fail_injector(), clock=clock
            ),
        )
        gateway.submit(_request(0))
        assert gateway.serve_batch(0.0, 1)[0].raw_fallback
        assert (cache.misses, cache.hits) == (0, 0)


class TestDegradation:
    def test_pressure_selects_deeper_rungs(self):
        gateway = CompressionGateway(_ladder(), capacity=10)
        for i in range(8):
            gateway.submit(_request(i))
        # pressure at first dequeue is 0.8: past both thresholds
        served = gateway.serve_batch(0.0, 8)
        assert served[0].rung_index == 2
        assert served[0].rung_label == "lz4-1"
        # the queue drains as the batch forms, so the tail degrades less
        assert served[-1].rung_index == 0
        assert gateway.stats.first_degraded_at is not None

    def test_degradation_disabled_pins_rung0(self):
        gateway = CompressionGateway(
            _ladder(), capacity=10, degradation_enabled=False
        )
        for i in range(8):
            gateway.submit(_request(i))
        served = gateway.serve_batch(0.0, 8)
        assert all(s.rung_index == 0 for s in served)
        assert not any(s.degraded for s in served)
        assert gateway.stats.first_degraded_at is None

    def test_shed_when_lane_full(self):
        gateway = CompressionGateway(_ladder(), capacity=2)
        clock = gateway.clock
        assert gateway.submit(_request(0)) == ADMIT
        assert gateway.submit(_request(1)) == ADMIT
        clock.advance(1.5)
        assert gateway.submit(_request(2)) == SHED
        assert gateway.stats.first_shed_at == pytest.approx(1.5)
        assert gateway.queue.depth() == 2  # the shed request was not queued


class TestFaultsAndBreakers:
    def test_codec_failure_falls_back_to_raw(self):
        injector = _always_fail_injector()
        clock = SimClock()
        gateway = CompressionGateway(
            _ladder(),
            capacity=16,
            clock=clock,
            codec_factory=lambda name: FaultyCodec(
                get_codec(name), injector, clock=clock
            ),
        )
        gateway.submit(_request(0))
        batch = gateway.serve_batch(0.0, 1)
        assert len(batch) == 1
        served = batch[0]
        assert served.raw_fallback
        assert served.bytes_out == served.size  # raw passthrough
        expected = (
            served.size / RAW_COPY_BANDWIDTH
            + OVERHEAD_SECONDS
        )
        assert served.service_seconds == pytest.approx(expected)

    def test_breaker_opens_after_repeated_failures(self):
        injector = _always_fail_injector()
        clock = SimClock()
        gateway = CompressionGateway(
            _ladder(),
            capacity=64,
            clock=clock,
            codec_factory=lambda name: FaultyCodec(
                get_codec(name), injector, clock=clock
            ),
            breaker_failure_threshold=3,
            breaker_cooldown_seconds=10.0,
        )
        served = []
        for i in range(6):
            gateway.submit(_request(i))
            served += gateway.serve_batch(clock.now(), 1)
        assert not gateway.breaker("zstd").allow()
        # every request was still served -- raw, never dropped
        assert len(served) == 6
        assert all(s.raw_fallback for s in served)

    def test_healthy_codec_keeps_breaker_closed(self):
        gateway = CompressionGateway(_ladder(), capacity=16)
        for i in range(5):
            gateway.submit(_request(i))
        served = gateway.serve_batch(0.0, 5)
        assert gateway.breaker("zstd").allow()
        assert len(served) == 5
        assert not any(s.raw_fallback for s in served)


class TestTelemetry:
    def test_disabled_obs_records_nothing(self):
        obs.reset()
        obs.disable()
        gateway = CompressionGateway(_ladder(), capacity=16)
        gateway.submit(_request(0))
        gateway.serve_batch(0.0, 1)
        assert len(obs.get_registry()) == 0

    def test_enabled_obs_records_verdicts_and_service(self):
        # the window registry is the serving telemetry plane: a gateway
        # with a recorder writes verdicts and serves into its open window
        recorder = WindowRecorder(1.0)
        gateway = CompressionGateway(_ladder(), capacity=10, recorder=recorder)
        for i in range(8):
            gateway.submit(_request(i, tenant="tenant-a"))
        served = gateway.serve_batch(0.0, 8)
        registry = recorder.registry()
        verdicts = registry.counter(WINDOW_VERDICTS)
        assert verdicts.value(tenant="tenant-a", verdict="admit") == 8
        degraded = registry.counter(WINDOW_DEGRADED)
        assert degraded.total() == sum(s.degraded for s in served) > 0

"""Serving gateway: overload behavior with and without the ladder.

The serving plane's claim (Section IV's requirements, operationalized):
under sustained overload, stepping down a cost-ranked degradation ladder
keeps tail latency bounded and sheds nothing, at a measured ratio cost.
This benchmark records the baseline run shape — goodput, p99 latency,
shed rate, and ratio lost to degradation at a fixed seed and rate — for
the overload scenario with the ladder on and off, asserting the
determinism and the degrade-before-shed ordering that CI certifies.

The pytest-benchmark kernel is the gateway hot path itself: one burst of
requests through admission, the weighted-fair queue, rung selection, and
compression dispatch.
"""

from __future__ import annotations

import trajectory

from repro.analysis import format_table
from repro.serving import (
    CompressionGateway,
    ServingRequest,
    build_ladder,
    run_simulation,
)
from repro.serving.slos import ALL_TENANTS, WINDOW_LATENCY, window_latency_p99

_SEED = 7
_SCALE = 0.5


def _p99(report) -> float:
    return window_latency_p99(report.registry, ALL_TENANTS)


def _report_row(report):
    latency = report.registry.get(WINDOW_LATENCY)
    return [
        "on" if report.degradation_enabled else "off",
        report.arrivals,
        report.served,
        report.shed,
        report.degraded,
        f"{latency.p50(tenant=ALL_TENANTS) * 1e3:.1f}",
        f"{latency.p99(tenant=ALL_TENANTS) * 1e3:.1f}",
        f"{report.goodput_bytes_per_second / 1e6:.3f}",
        f"{report.ratio_lost_to_degradation() * 100:.1f}%",
    ]


def test_serving_overload_baseline(benchmark, figure_output):
    ladder_on = run_simulation("overload", seed=_SEED, scale=_SCALE)
    ladder_off = run_simulation(
        "overload", seed=_SEED, scale=_SCALE, degradation=False
    )

    # the properties the serving plane exists to provide
    assert ladder_on.degraded > 0
    assert ladder_on.shed == 0
    assert _p99(ladder_on) < _p99(ladder_off)
    if ladder_on.first_shed_at is not None:
        assert ladder_on.first_degraded_at is not None
        assert ladder_on.first_degraded_at < ladder_on.first_shed_at

    # fold the headline numbers into the perf trajectory (same names
    # `python benchmarks/trajectory.py` regenerates for the CI baseline;
    # the run is deterministic so re-recording is byte-stable)
    trajectory.record(
        "serving.overload.p99_ms",
        _p99(ladder_on) * 1e3,
        "ms",
        higher_is_better=False,
    )
    trajectory.record(
        "serving.overload.goodput_mbps",
        ladder_on.goodput_bytes_per_second / 1e6,
        "MB/s",
    )
    trajectory.record(
        "serving.overload.ratio_lost_pct",
        ladder_on.ratio_lost_to_degradation() * 100,
        "%",
        higher_is_better=False,
    )
    trajectory.record(
        "serving.overload.served", float(ladder_on.served), "requests"
    )

    figure_output(
        "serving_overload_baseline",
        format_table(
            [
                "ladder",
                "arrivals",
                "served",
                "shed",
                "degraded",
                "p50 ms",
                "p99 ms",
                "goodput MB/s",
                "ratio lost",
            ],
            [_report_row(ladder_on), _report_row(ladder_off)],
            title=(
                f"Serving overload baseline (seed {_SEED}, scale {_SCALE}, "
                f"degradation on vs off)"
            ),
        ),
    )

    # kernel: one burst through admission, fair queue, and dispatch
    payloads = [
        f"serving kernel payload {i:04d} compressible body ".encode() * 24
        for i in range(50)
    ]
    ladder = build_ladder(payloads[:4], algorithms=("zstd", "lz4"), levels=(1, 3))

    def burst() -> int:
        gateway = CompressionGateway(ladder, capacity=64)
        for i, payload in enumerate(payloads):
            gateway.submit(
                ServingRequest(
                    request_id=i,
                    tenant=f"tenant-{i % 3}",
                    payload=payload,
                    arrival=0.0,
                )
            )
        served = 0
        while gateway.queue.depth():
            served += len(gateway.serve_batch(0.0, 8))
        return served

    assert burst() == len(payloads)
    benchmark(burst)

"""The one traffic ledger, checked against something it did not write.

Both simulators read every count of their reports off the window registry
(``serving.slos.traffic_counts`` over the folded windows), so the
conservation equalities in ``tests/test_sim_conservation.py`` compare the
ledger with itself and cannot see a window record dropped or written
twice. The requests can: the gateway writes each served request's outcome
into the request object, independently of the window hooks. This sweep
captures every generated request and requires the report's serve counts
and byte volumes to equal the sums over those outcome fields.
"""

import pytest

from repro.cluster import run_cluster_simulation
from repro.serving import run_simulation
from repro.serving.workload import WorkloadGenerator

SEEDS = (7, 23)
RUNS = (
    ("serve", "overload", 0.1),
    ("serve", "burst", 0.1),
    ("cluster", "fleet-surge", 0.25),
    ("cluster", "fleet-hotspot", 0.25),
)


def _run_capturing_requests(monkeypatch, plane, scenario, seed, scale):
    generated = []
    generate = WorkloadGenerator.generate

    def capture(self):
        # the run reads a stream: keep each request as it is yielded
        requests = []
        generated.append(requests)
        return (requests.append(r) or r for r in generate(self))

    monkeypatch.setattr(WorkloadGenerator, "generate", capture)
    run = run_simulation if plane == "serve" else run_cluster_simulation
    report = run(scenario, seed=seed, scale=scale)
    (requests,) = generated
    return report, requests


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("plane,scenario,scale", RUNS)
def test_report_counts_equal_the_request_outcomes(
    monkeypatch, plane, scenario, seed, scale
):
    report, requests = _run_capturing_requests(
        monkeypatch, plane, scenario, seed, scale
    )
    assert report.arrivals == len(requests)
    # a serve writes the rung label (never empty); nothing else does
    served = [r for r in requests if r.rung_label]
    assert served
    assert report.served == len(served)
    assert report.degraded == sum(1 for r in served if r.degraded)
    assert report.raw_fallbacks == sum(1 for r in served if r.raw_fallback)
    assert report.bytes_in_served == sum(r.size for r in served)
    assert report.bytes_out == sum(r.bytes_out for r in served)

"""Request conservation across both simulators, asserted once and swept.

Both simulators run on one event loop (:mod:`repro.sim`), so there is one
place a request can be lost or counted twice. Every run must balance:

- front door: each arrival gets exactly one admission verdict;
- back door: each admitted request is served or deadline-expired — the
  loop runs until the heap drains, so nothing is still queued;
- completion: each served request settles as on-time or tardy, and
  on-time bytes are a subset of served bytes;
- fleet: the cluster's totals are the sums over its shards.
"""

import pytest

from repro.cluster import CLUSTER_SCENARIOS, run_cluster_simulation
from repro.serving import SCENARIOS, run_simulation

SEEDS = (1, 7, 23)
SERVE_SCALE = 0.1
CLUSTER_SCALE = 0.25


def _run(scenario: str, seed: int):
    if scenario in SCENARIOS:
        return run_simulation(scenario, seed=seed, scale=SERVE_SCALE)
    return run_cluster_simulation(scenario, seed=seed, scale=CLUSTER_SCALE)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS) + sorted(CLUSTER_SCENARIOS))
def test_every_request_is_accounted_for_exactly_once(scenario, seed):
    report = _run(scenario, seed)
    assert report.arrivals > 0
    assert report.arrivals == report.admitted + report.throttled + report.shed
    assert report.admitted == report.served + report.expired
    assert report.served == report.on_time + report.tardy
    assert report.bytes_on_time <= report.bytes_in_served
    if scenario in CLUSTER_SCENARIOS:
        shards = report.shards
        assert report.arrivals == sum(s.routed for s in shards)
        for total, column in (
            (report.admitted, "admitted"),
            (report.throttled, "throttled"),
            (report.shed, "shed"),
            (report.expired, "expired"),
            (report.served, "served"),
            (report.degraded, "degraded"),
            (report.raw_fallbacks, "raw_fallbacks"),
            (report.bytes_in_served, "bytes_in"),
            (report.bytes_out, "bytes_out"),
        ):
            assert total == sum(getattr(s, column) for s in shards), column

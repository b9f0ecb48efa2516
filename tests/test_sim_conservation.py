"""Request conservation across both simulators, asserted once and swept.

Both simulators run on one event loop (:mod:`repro.sim`), so there is one
place a request can be lost or counted twice. Every run must balance:

- front door: each arrival gets exactly one admission verdict;
- back door: each admitted request is served or deadline-expired — the
  loop runs until the heap drains, so nothing is still queued;
- completion: each served request settles as on-time or tardy, and
  on-time bytes are a subset of served bytes;
- fleet: the cluster's totals are the sums over its shards.

Both simulators also check these equalities themselves when the heap
drains (``repro.sim.check_conservation``) and raise on a violation; the
last tests here break the ledger on purpose and expect that raise, and
hold node loss, a fault only the cluster simulator runs, to the same
account.
"""

import pytest

from repro.chaos import run_chaos
from repro.cluster import (
    CLUSTER_SCENARIOS,
    format_cluster_scorecard,
    run_cluster_simulation,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.serving import SCENARIOS, run_simulation
from repro.serving import gateway as gateway_module
from repro.serving.queue import FairQueue

SEEDS = (1, 7, 23)
SERVE_SCALE = 0.1
CLUSTER_SCALE = 0.25


def _run(scenario: str, seed: int, cluster_scale: float = CLUSTER_SCALE):
    if scenario in SCENARIOS:
        return run_simulation(scenario, seed=seed, scale=SERVE_SCALE)
    return run_cluster_simulation(scenario, seed=seed, scale=cluster_scale)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS) + sorted(CLUSTER_SCENARIOS))
def test_every_request_is_accounted_for_exactly_once(scenario, seed):
    _assert_conserved(scenario, _run(scenario, seed))


@pytest.mark.parametrize("scenario", sorted(CLUSTER_SCENARIOS))
def test_a_full_length_cluster_run_is_accounted_for(scenario):
    # scale 1.0: every scenario's whole diurnal / hotspot shape, with
    # scale-ups, drains and retirements the short runs may not reach
    _assert_conserved(scenario, _run(scenario, 7, cluster_scale=1.0))


def _assert_conserved(scenario, report):
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


@pytest.mark.parametrize("plane", ["serve", "cluster"])
def test_a_lost_verdict_raises_when_the_heap_drains(monkeypatch, plane):
    # the first admit verdict never reaches the ledger
    record = gateway_module.record_window_verdict
    dropped = []

    def lossy(recorder, tenant, verdict):
        if verdict == "admit" and not dropped:
            dropped.append(tenant)
            return
        record(recorder, tenant, verdict)

    monkeypatch.setattr(gateway_module, "record_window_verdict", lossy)
    scenario = "overload" if plane == "serve" else "fleet-surge"
    with pytest.raises(RuntimeError) as raised:
        _run(scenario, 7)
    assert dropped
    message = str(raised.value)
    assert "arrivals == admitted + throttled + shed" in message
    assert "admitted == served + expired" in message


def test_a_dropped_rehome_raises_in_a_chaos_node_loss_run(monkeypatch):
    # the first request re-homed off a lost node vanishes instead of
    # joining its new owner's queue: admitted, never served nor expired
    offer = FairQueue.offer
    dropped = []

    def lossy(self, request):
        if request.rehomed and not dropped:
            dropped.append(request.request_id)
            return True
        return offer(self, request)

    monkeypatch.setattr(FairQueue, "offer", lossy)
    with pytest.raises(RuntimeError) as raised:
        run_chaos(plan="standard", seed=7, ops=1.0)
    assert dropped
    assert "admitted == served + expired" in str(raised.value)


def _node_loss_run():
    # fleet-steady rarely queues, so a loss strands work only now and
    # then: a loss on half the arrivals re-homes a few requests
    plan = FaultPlan("loss", (FaultSpec("cluster.node", "node_loss", 0.5),))
    settled = []
    report = run_cluster_simulation(
        "fleet-steady",
        seed=7,
        scale=CLUSTER_SCALE,
        faults=FaultInjector(plan, seed=4),
        on_settled=settled.append,
    )
    return report, settled


def test_node_loss_in_the_cluster_simulator_keeps_every_request():
    report, settled = _node_loss_run()
    _assert_conserved("fleet-steady", report)
    assert any(event.action == "loss" for event in report.scale_events)
    assert len(settled) == report.served
    assert sum(request.rehomed for request in settled) > 0
    card = format_cluster_scorecard(report)
    assert card == format_cluster_scorecard(_node_loss_run()[0])

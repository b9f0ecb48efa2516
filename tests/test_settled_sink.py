"""A run owns its settled requests.

Both simulators hand each request they settle to the run's ``on_settled``
sink (``repro.sim.settle``) and keep none of it: once a run returns, a
request is garbage unless the sink kept it. The fault injector is a fault
plan and holds no request, so a faulted run that returns leaves no live
``ServingRequest`` behind while the caller still holds the injector and
the report. The sink sees every served request once, in completion order.
"""

import gc

import pytest

from repro.cluster import run_cluster_simulation
from repro.faults import FaultInjector, FaultPlan
from repro.serving import run_simulation
from repro.serving.queue import ServingRequest

RUNS = {
    "serve-overload": lambda **kw: run_simulation(
        "overload", seed=7, scale=0.25, **kw
    ),
    "cluster-fleet-steady": lambda **kw: run_cluster_simulation(
        "fleet-steady", seed=7, scale=0.25, **kw
    ),
}


def _live_requests() -> int:
    gc.collect()
    return sum(isinstance(o, ServingRequest) for o in gc.get_objects())


@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_faulted_run_keeps_no_request_once_it_returns(run):
    seen = []

    def sink(request):
        # what the test needs of each request, never the request itself
        completed = (
            request.arrival + request.wait_seconds + request.service_seconds
        )
        seen.append((completed, request.request_id))

    before = _live_requests()
    injector = FaultInjector(FaultPlan.named("standard"), seed=7)
    report = RUNS[run](faults=injector, on_settled=sink)
    assert _live_requests() == before
    assert sum(injector.fired.values()) > 0
    assert report.served > 0
    assert len(seen) == report.served
    assert len({request_id for __, request_id in seen}) == len(seen)
    completions = [completed for completed, __ in seen]
    assert all(
        later >= earlier - 1e-9
        for earlier, later in zip(completions, completions[1:])
    )

"""Adversarial traces for the autoscaler's hysteresis and the
rebalancer's damping.

Control loops fail by oscillating, so the traces here are built to
provoke exactly that: alternating high/low pressure (flapping), breach
storms inside the cooldown window, pressure and burn disagreeing, and
hot tenants hammering the same shard tick after tick. Every test is a
plain deterministic sequence — no simulator, no randomness — so a
failure reads as a truth table violation.
"""

import pytest

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.rebalance import (
    Rebalancer,
    RebalancerConfig,
    TenantRouter,
)
from repro.cluster.ring import HashRing

HIGH = [0.9, 0.9, 0.9, 0.9]
LOW = [0.0, 0.0, 0.0, 0.0]


def _config(**overrides):
    base = dict(
        min_nodes=2,
        max_nodes=8,
        up_pressure=0.6,
        down_pressure=0.1,
        up_after=2,
        down_after=3,
        cooldown_seconds=1.0,
    )
    base.update(overrides)
    return AutoscalerConfig(**base)


# -- autoscaler ---------------------------------------------------------------


def test_flapping_pressure_never_scales():
    """An alternating high/low trace keeps resetting both streaks —
    the fleet must not move, no matter how long the flap lasts."""
    scaler = Autoscaler(_config())
    for tick in range(200):
        pressure = HIGH if tick % 2 == 0 else LOW
        decision = scaler.observe(tick * 0.25, 4, pressure, None)
        assert decision is None, f"flap produced {decision!r} at tick {tick}"


def test_scale_up_needs_consecutive_breaches():
    scaler = Autoscaler(_config(up_after=3))
    assert scaler.observe(0.00, 4, HIGH, None) is None
    assert scaler.observe(0.25, 4, HIGH, None) is None
    assert scaler.observe(0.50, 4, HIGH, None) == Autoscaler.UP


def test_burn_alone_triggers_scale_up():
    """Latency burn above 1.2 votes up even with empty queues —
    slow nodes page without deep queues, and the scaler must see it."""
    scaler = Autoscaler(_config(up_after=2))
    assert scaler.observe(0.00, 4, LOW, 1.5) is None
    assert scaler.observe(0.25, 4, LOW, 1.5) == Autoscaler.UP


def test_cooldown_suppresses_but_streaks_survive():
    """Inside the cooldown nothing fires, but a persistent breach keeps
    its streak and acts on the first tick after the cooldown lifts."""
    scaler = Autoscaler(_config(up_after=2, cooldown_seconds=1.0))
    scaler.observe(0.00, 4, HIGH, None)
    assert scaler.observe(0.25, 4, HIGH, None) == Autoscaler.UP
    # 0.5 and 0.75 are within one second of the action at 0.25
    assert scaler.observe(0.50, 5, HIGH, None) is None
    assert scaler.observe(0.75, 5, HIGH, None) is None
    # cooldown over, streak already >= up_after: fires immediately
    assert scaler.observe(1.25, 5, HIGH, None) == Autoscaler.UP


def test_scale_down_requires_low_pressure_and_low_burn():
    """Idle queues with latency still burning must not scale down —
    the two signals have to agree before capacity is removed."""
    scaler = Autoscaler(_config(down_after=2))
    for tick in range(10):
        assert scaler.observe(tick * 0.25, 4, LOW, 1.0) is None
    assert scaler.observe(2.50, 4, LOW, 0.2) is None
    assert scaler.observe(2.75, 4, LOW, 0.2) == Autoscaler.DOWN


def test_bounds_clamp_decisions():
    scaler = Autoscaler(_config(min_nodes=2, max_nodes=4, up_after=1, down_after=1))
    assert scaler.observe(0.0, 4, HIGH, None) is None  # at max: no up
    assert scaler.observe(5.0, 2, LOW, None) is None  # at min: no down


def test_opposing_signals_reset_each_other():
    scaler = Autoscaler(_config(up_after=3, down_after=3))
    scaler.observe(0.00, 4, HIGH, None)
    scaler.observe(0.25, 4, HIGH, None)
    scaler.observe(0.50, 4, LOW, None)  # resets the up streak
    assert scaler.observe(0.75, 4, HIGH, None) is None
    assert scaler.observe(1.00, 4, HIGH, None) is None
    assert scaler.observe(1.25, 4, HIGH, None) == Autoscaler.UP


def test_config_validation():
    with pytest.raises(ValueError):
        AutoscalerConfig(min_nodes=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(min_nodes=5, max_nodes=2)
    with pytest.raises(ValueError):
        AutoscalerConfig(up_after=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(up_pressure=0.3, down_pressure=0.3)
    with pytest.raises(ValueError):
        AutoscalerConfig(step_up=0)


# -- rebalancer ---------------------------------------------------------------


def _cluster(nodes=("n0", "n1", "n2", "n3")):
    ring = HashRing(nodes=list(nodes), vnodes=16, replicas=2)
    router = TenantRouter(ring)
    return ring, router


def test_hot_tenant_migrates_to_coldest_nodes():
    ring, router = _cluster()
    rebalancer = Rebalancer(router, RebalancerConfig(hot_share=0.5, pressure_floor=0.5))
    natural = {t: router.replica_set(t) for t in ("hot", "cold-a", "cold-b")}
    events = rebalancer.observe(
        1.0,
        {"n0": {"hot": 80, "cold-a": 10}},
        {"n0": 0.9, "n1": 0.1, "n2": 0.3, "n3": 0.2},
        ["n0", "n1", "n2", "n3"],
    )
    assert [e.tenant for e in events] == ["hot"]
    # override lands on the two least-pressured nodes, hot shard excluded
    assert router.replica_set("hot") == ("n1", "n3")
    # nobody else moved — the ring is untouched
    for tenant in ("cold-a", "cold-b"):
        assert router.replica_set(tenant) == natural[tenant]
    assert len(ring) == 4


def test_cold_shard_and_noise_floor_suppress_migration():
    _, router = _cluster()
    rebalancer = Rebalancer(
        router, RebalancerConfig(hot_share=0.5, pressure_floor=0.5, min_requests=20)
    )
    # pressured but too few requests to trust the mix
    assert not rebalancer.observe(
        1.0, {"n0": {"hot": 10}}, {"n0": 0.9}, ["n0", "n1"]
    )
    # busy but not pressured
    assert not rebalancer.observe(
        2.0, {"n0": {"hot": 100}}, {"n0": 0.2}, ["n0", "n1"]
    )
    assert router.overrides == {}


def test_tenant_cooldown_stops_ping_pong():
    _, router = _cluster()
    rebalancer = Rebalancer(
        router, RebalancerConfig(hot_share=0.5, pressure_floor=0.5, cooldown_seconds=1.0)
    )
    hot = {"n0": {"hot": 50}}
    pressures = {"n0": 0.9, "n1": 0.1, "n2": 0.2, "n3": 0.3}
    assert rebalancer.observe(1.0, hot, pressures, ["n0", "n1", "n2", "n3"])
    # same tenant hammering again inside the cooldown: no second move
    hot2 = {"n1": {"hot": 50}}
    pressures2 = {"n0": 0.1, "n1": 0.9, "n2": 0.2, "n3": 0.3}
    assert not rebalancer.observe(1.5, hot2, pressures2, ["n0", "n1", "n2", "n3"])
    # cooldown over: it may move again
    assert rebalancer.observe(2.5, hot2, pressures2, ["n0", "n1", "n2", "n3"])


def test_drop_node_rewrites_overrides_against_the_ring():
    ring, router = _cluster()
    router.overrides["pinned"] = ("n1", "n2")
    ring.remove_node("n1")
    moved = router.drop_node("n1", ["pinned", "other"])
    assert "pinned" in moved
    assert "n1" not in router.replica_set("pinned")
    assert router.replica_set("pinned") == tuple(ring.replica_set("pinned"))


def test_router_spreads_a_tenant_across_its_replicas():
    _, router = _cluster()
    targets = {router.route("tenant", rid) for rid in range(10)}
    assert targets == set(router.replica_set("tenant"))
    assert len(targets) == 2

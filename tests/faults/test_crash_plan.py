"""Crash plans and the crash injector: counting, firing, determinism."""

import pytest

from repro.faults import CrashInjector, CrashPlan, CrashPoint, SimulatedCrash
from repro.faults.plan import KINDS, NAMED_PLANS, FaultSpec


class TestCrashPlan:
    def test_single_builds_one_point(self):
        plan = CrashPlan.single("kvstore.flush.sst", 2)
        assert plan.points == (CrashPoint("kvstore.flush.sst", 2),)

    def test_none_is_empty(self):
        assert CrashPlan.none().points == ()

    def test_hit_must_be_positive(self):
        with pytest.raises(ValueError):
            CrashPoint("site", 0)


class TestCrashInjector:
    def test_fires_on_the_nth_hit(self):
        injector = CrashInjector(CrashPlan.single("site.a", 3))
        injector.reach("site.a")
        injector.reach("site.a")
        with pytest.raises(SimulatedCrash) as exc:
            injector.reach("site.a")
        assert exc.value.site == "site.a"
        assert exc.value.hit == 3
        assert injector.fired == ("site.a", 3)

    def test_other_sites_never_fire(self):
        injector = CrashInjector(CrashPlan.single("site.a", 1))
        for __ in range(5):
            injector.reach("site.b")
        assert injector.fired is None
        assert injector.reached["site.b"] == 5

    def test_fires_at_most_once(self):
        injector = CrashInjector(CrashPlan.single("site.a", 1))
        with pytest.raises(SimulatedCrash):
            injector.reach("site.a")
        injector.reach("site.a")  # already fired: counts, never raises
        assert injector.reached["site.a"] == 2

    def test_disarm_suppresses_firing(self):
        injector = CrashInjector(CrashPlan.single("site.a", 1))
        injector.disarm()
        # visits while disarmed still count (the hit is consumed): the
        # harness re-arms relative to the current count via arm_point
        injector.reach("site.a")
        assert injector.fired is None
        assert injector.reached["site.a"] == 1
        injector.armed = True
        injector.reach("site.a")  # hit 1 already passed — never fires
        assert injector.fired is None
        injector.arm_point("site.a")
        with pytest.raises(SimulatedCrash):
            injector.reach("site.a")

    def test_arm_point_is_relative_to_current_count(self):
        injector = CrashInjector(CrashPlan.none())
        injector.reach("site.a")
        injector.reach("site.a")
        injector.arm_point("site.a")  # die at the next visit
        with pytest.raises(SimulatedCrash) as exc:
            injector.reach("site.a")
        assert exc.value.hit == 3

    def test_multi_point_plan(self):
        plan = CrashPlan(
            "two", (CrashPoint("a", 1), CrashPoint("b", 1))
        )
        injector = CrashInjector(plan)
        with pytest.raises(SimulatedCrash):
            injector.reach("a")
        # one crash per injector: the process died
        injector.reach("b")
        assert injector.fired == ("a", 1)


class TestCrashFaultKind:
    def test_crash_is_a_known_kind(self):
        assert "crash" in KINDS
        FaultSpec("kvstore.durable", "crash", 0.5)  # validates

    def test_standard_plan_includes_durability_specs(self):
        specs = {
            (spec.site, spec.kind) for spec in NAMED_PLANS["standard"].specs
        }
        assert ("kvstore.durable", "crash") in specs
        assert ("kvstore.sync", "drop") in specs

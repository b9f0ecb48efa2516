"""FaultSpec/FaultPlan/FaultInjector: validation and determinism."""

import pytest

from repro.faults import (
    NAMED_PLANS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    corrupt,
    flip_bits,
    truncate,
)
import random


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("rpc.wire", "meltdown", 0.5)

    def test_rate_must_be_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("rpc.wire", "drop", 1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("rpc.wire", "drop", -0.1)

    def test_prefix_matching(self):
        spec = FaultSpec("codec", "fail", 1.0)
        assert spec.matches("codec")
        assert spec.matches("codec.zstd.decompress")
        assert not spec.matches("codecs")
        assert not spec.matches("rpc.wire")

    def test_exact_site_matching(self):
        spec = FaultSpec("rpc.wire", "drop", 1.0)
        assert spec.matches("rpc.wire")
        assert not spec.matches("rpc")


class TestFaultPlan:
    def test_named_plans_resolve(self):
        for name in NAMED_PLANS:
            plan = FaultPlan.named(name)
            assert plan.name == name

    def test_unknown_plan_lists_available(self):
        with pytest.raises(ValueError, match="available"):
            FaultPlan.named("nonexistent")

    def test_none_plan_is_empty(self):
        assert FaultPlan.named("none").specs == ()


class TestInjectorDeterminism:
    def _drive(self, injector, opportunities=200):
        for i in range(opportunities):
            injector.on_wire("rpc.wire", b"payload %d" % i)
            injector.on_codec_call("codec.zstd.decompress", b"blob %d" % i)
        return list(injector.history)

    def test_same_seed_identical_history(self):
        plan = FaultPlan.named("standard")
        first = self._drive(FaultInjector(plan, seed=7))
        second = self._drive(FaultInjector(plan, seed=7))
        assert first == second
        assert first  # the standard plan does fire within 200 opportunities

    def test_different_seed_different_history(self):
        plan = FaultPlan.named("standard")
        assert self._drive(FaultInjector(plan, seed=7)) != self._drive(
            FaultInjector(plan, seed=8)
        )

    def test_specs_draw_independently(self):
        """Adding an unrelated spec must not perturb another spec's stream."""
        drop_only = FaultPlan("a", (FaultSpec("rpc.wire", "drop", 0.3),))
        with_extra = FaultPlan(
            "b",
            (
                FaultSpec("rpc.wire", "drop", 0.3),
                FaultSpec("codec", "fail", 0.9),
            ),
        )

        def drop_decisions(plan):
            injector = FaultInjector(plan, seed=5)
            return [
                injector.on_wire("rpc.wire", b"x").dropped for __ in range(300)
            ]

        assert drop_decisions(drop_only) == drop_decisions(with_extra)

    def test_payload_corruption_deterministic(self):
        plan = FaultPlan("p", (FaultSpec("site", "bit_flip", 1.0, magnitude=4),))
        one = FaultInjector(plan, seed=3).corrupt_payload("site", b"A" * 64)
        two = FaultInjector(plan, seed=3).corrupt_payload("site", b"A" * 64)
        assert one == two
        assert one[0] != b"A" * 64
        assert one[1] == ("bit_flip",)


class TestInjectorEffects:
    def test_certain_drop(self):
        plan = FaultPlan("p", (FaultSpec("rpc.wire", "drop", 1.0),))
        effects = FaultInjector(plan).on_wire("rpc.wire", b"hello")
        assert effects.dropped
        assert effects.kinds == ("drop",)

    def test_latency_magnitude_is_seconds(self):
        plan = FaultPlan("p", (FaultSpec("rpc.wire", "latency", 1.0, magnitude=0.25),))
        effects = FaultInjector(plan).on_wire("rpc.wire", b"hello")
        assert effects.extra_seconds == pytest.approx(0.25)
        assert not effects.dropped
        assert effects.payload == b"hello"

    def test_codec_fail_and_slow(self):
        plan = FaultPlan(
            "p",
            (
                FaultSpec("codec", "fail", 1.0),
                FaultSpec("codec", "slow", 1.0, magnitude=0.01),
            ),
        )
        effects = FaultInjector(plan).on_codec_call("codec.zstd.compress")
        assert effects.fail
        assert effects.slow_seconds == pytest.approx(0.01)

    def test_should_for_dict_loss(self):
        plan = FaultPlan("p", (FaultSpec("managed.dictionary", "dict_loss", 1.0),))
        injector = FaultInjector(plan)
        assert injector.should("managed.dictionary", "dict_loss")
        assert not injector.should("managed.dictionary", "drop")

    def test_zero_rate_never_fires(self):
        plan = FaultPlan("p", (FaultSpec("rpc.wire", "drop", 0.0),))
        injector = FaultInjector(plan)
        assert not any(
            injector.on_wire("rpc.wire", b"x").dropped for __ in range(100)
        )
        assert injector.history == []

    def test_accounting(self):
        plan = FaultPlan("p", (FaultSpec("rpc.wire", "drop", 1.0),))
        injector = FaultInjector(plan)
        for __ in range(5):
            injector.on_wire("rpc.wire", b"x")
        injector.on_wire("other.site", b"x")
        assert injector.opportunities == {"rpc.wire": 5, "other.site": 1}
        assert injector.fired[("rpc.wire", "drop")] == 5
        assert len(injector.history) == 5


class TestCorruptPrimitives:
    def test_flip_bits_changes_and_preserves_length(self):
        rng = random.Random("t")
        data = b"\x00" * 32
        flipped = flip_bits(data, rng, flips=3)
        assert len(flipped) == 32
        assert flipped != data

    def test_truncate_always_shortens(self):
        rng = random.Random("t")
        for __ in range(20):
            assert len(truncate(b"0123456789", rng)) < 10

    def test_empty_input_safe(self):
        rng = random.Random("t")
        assert flip_bits(b"", rng) == b""
        assert truncate(b"", rng) == b""
        assert corrupt(b"", "garbage", rng) != b""  # garbage appends

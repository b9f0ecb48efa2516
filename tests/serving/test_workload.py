"""Workload generation: determinism, arrival processes, fleet tenants."""

import math

import pytest

from repro.corpus import SeededSampler
from repro.fleet.profiles import DEFAULT_FLEET
from repro.serving import workload as workload_module
from repro.serving.queue import ServingRequest
from repro.serving.workload import (
    TenantSpec,
    WorkloadGenerator,
    tenants_from_fleet,
)

_FAST_TENANTS = [
    TenantSpec(
        name="alpha",
        weight=0.7,
        median_bytes=512,
        sigma=0.5,
        deadline_seconds=0.1,
        corpus="logs",
    ),
    TenantSpec(
        name="beta",
        weight=0.3,
        median_bytes=1024,
        sigma=0.5,
        deadline_seconds=1.0,
        corpus="records",
    ),
]


class TestFleetTenants:
    def test_default_tenants_normalized(self):
        tenants = tenants_from_fleet()
        assert len(tenants) == 4
        assert sum(t.weight for t in tenants) == pytest.approx(1.0)
        assert all(t.weight > 0 for t in tenants)
        assert all(64 <= t.median_bytes <= 16384 for t in tenants)
        # every tenant is a real fleet service
        names = {p.name for p in DEFAULT_FLEET}
        assert all(t.name in names for t in tenants)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            tenants_from_fleet(categories=("No Such Category",))


class TestGeneration:
    def test_deterministic_per_seed(self):
        def run():
            return list(WorkloadGenerator(
                _FAST_TENANTS, rate_rps=200, duration_seconds=1.0, seed=5
            ).generate())

        a, b = run(), run()
        assert len(a) == len(b) > 0
        for left, right in zip(a, b):
            assert left == right

    def test_different_seed_differs(self):
        a = list(WorkloadGenerator(
            _FAST_TENANTS, rate_rps=200, duration_seconds=1.0, seed=5
        ).generate())
        b = list(WorkloadGenerator(
            _FAST_TENANTS, rate_rps=200, duration_seconds=1.0, seed=6
        ).generate())
        assert [r.arrival for r in a] != [r.arrival for r in b]

    def test_request_shape(self):
        requests = list(WorkloadGenerator(
            _FAST_TENANTS, rate_rps=300, duration_seconds=1.0, seed=7
        ).generate())
        assert len(requests) > 100
        names = {t.name for t in _FAST_TENANTS}
        deadlines = {t.name: t.deadline_seconds for t in _FAST_TENANTS}
        previous = 0.0
        for i, request in enumerate(requests):
            assert request.request_id == i
            assert request.tenant in names
            assert previous <= request.arrival < 1.0
            assert 64 <= request.size <= 1 << 16
            assert request.deadline == pytest.approx(
                request.arrival + deadlines[request.tenant]
            )
            previous = request.arrival

    def test_tenant_mix_follows_weights(self):
        requests = list(WorkloadGenerator(
            _FAST_TENANTS, rate_rps=500, duration_seconds=2.0, seed=11
        ).generate())
        share = sum(r.tenant == "alpha" for r in requests) / len(requests)
        assert share == pytest.approx(0.7, abs=0.08)

    def test_poisson_rate_is_unscaled_by_amplitude(self):
        # the diurnal amplitude must not inflate a pure Poisson stream
        requests = list(WorkloadGenerator(
            _FAST_TENANTS,
            rate_rps=400,
            duration_seconds=2.0,
            seed=13,
            process="poisson",
            diurnal_amplitude=0.9,
        ).generate())
        assert len(requests) == pytest.approx(800, rel=0.15)

    def test_diurnal_peak_in_first_half(self):
        # one sinusoidal period over the run: rate above average in the
        # first half (sin > 0), below in the second
        requests = list(WorkloadGenerator(
            _FAST_TENANTS,
            rate_rps=400,
            duration_seconds=2.0,
            seed=17,
            process="diurnal",
            diurnal_amplitude=0.8,
        ).generate())
        first = sum(r.arrival < 1.0 for r in requests)
        second = len(requests) - first
        assert first > second * 1.5

    def test_duplicate_tenant_names_rejected(self):
        # two specs of one name would share a weight entry, a fair-queue
        # lane and a payload pool; the weights would no longer sum to 1
        tenants = tenants_from_fleet(("Cache", "Cache"))
        assert [t.name for t in tenants] == ["cache_objects", "cache_objects"]
        with pytest.raises(ValueError, match="'cache_objects'"):
            WorkloadGenerator(tenants)
        twice = [_FAST_TENANTS[0], _FAST_TENANTS[1], _FAST_TENANTS[0]]
        with pytest.raises(ValueError, match="'alpha'"):
            WorkloadGenerator(twice)

    def test_generate_is_a_stream(self):
        # nothing is drawn until the stream is read, and reading it in
        # steps yields the same requests as reading it at once
        generator = WorkloadGenerator(
            _FAST_TENANTS, rate_rps=200, duration_seconds=1.0, seed=5
        )
        stream = generator.generate()
        assert generator._corpora == {}
        head = [next(stream) for __ in range(3)]
        whole = list(WorkloadGenerator(
            _FAST_TENANTS, rate_rps=200, duration_seconds=1.0, seed=5
        ).generate())
        assert head + list(stream) == whole

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(_FAST_TENANTS, process="bursty")
        with pytest.raises(ValueError):
            WorkloadGenerator(_FAST_TENANTS, rate_rps=0.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(_FAST_TENANTS, diurnal_amplitude=1.0)

    @pytest.mark.parametrize(
        "weights", [(1.2, -0.2), (0.7, 0.7), (0.2, 0.3), (float("nan"), 0.5)]
    )
    def test_malformed_tenant_weights_rejected_before_any_request(
        self, weights, monkeypatch
    ):
        # numpy used to find these inside the first rng.choice draw; the
        # check now runs once, before the generator is even seeded
        tenants = [
            TenantSpec(t.name, w, t.median_bytes, t.sigma, t.deadline_seconds, t.corpus)
            for t, w in zip(_FAST_TENANTS, weights)
        ]
        sampled = []
        monkeypatch.setattr(
            workload_module, "SeededSampler", lambda seed: sampled.append(seed)
        )
        with pytest.raises(ValueError, match="tenant weights"):
            WorkloadGenerator(tenants, rate_rps=200, duration_seconds=1.0).generate()
        assert sampled == []
        # the same inputs numpy refused, with the same exception type
        with pytest.raises(ValueError):
            SeededSampler(0).rng.choice(["a", "b"], p=weights)


def _generate_with_rng_choice(gen: WorkloadGenerator):
    """``WorkloadGenerator.generate`` as it was when every tenant draw was
    ``rng.choice(names, p=weights)``: the reference the cdf/bisect draw
    must reproduce, request for request."""
    rng = SeededSampler(gen.seed).rng
    names = [t.name for t in gen.tenants]
    weights = [t.weight for t in gen.tenants]
    by_name = {t.name: t for t in gen.tenants}
    diurnal = gen.process == "diurnal"
    peak = gen.rate_rps * (1.0 + gen.diurnal_amplitude) if diurnal else gen.rate_rps
    requests = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= gen.duration_seconds:
            return requests
        if diurnal and float(rng.random()) >= gen._rate_at(t) / peak:
            continue
        name = str(rng.choice(names, p=weights))
        spec = by_name[name]
        if gen.payload_pool:
            pool = gen._pools.get(name)
            if pool is None:
                pool = gen._pools[name] = gen._build_pool(spec)
            payload = pool[int(rng.integers(0, len(pool)))]
        else:
            size = int(
                min(
                    max(
                        rng.lognormal(
                            mean=math.log(spec.median_bytes), sigma=spec.sigma
                        ),
                        64,
                    ),
                    1 << 16,
                )
            )
            corpus = gen._corpora.get(name)
            if corpus is None:
                corpus = gen._corpora[name] = workload_module._tenant_corpus(
                    spec, seed=gen.seed * 1009 + len(gen._corpora)
                )
            start = int(rng.integers(0, max(1, len(corpus) - size)))
            payload = corpus[start : start + size]
        requests.append(
            ServingRequest(
                request_id=len(requests),
                tenant=name,
                payload=payload,
                arrival=t,
                deadline=t + spec.deadline_seconds,
            )
        )


class TestTenantDrawEqualsRngChoice:
    @pytest.mark.parametrize("seed", [3, 7, 42])
    @pytest.mark.parametrize("process", ["poisson", "diurnal"])
    @pytest.mark.parametrize("payload_pool", [None, 4])
    def test_same_requests_as_the_reference_loop(self, seed, process, payload_pool):
        def generator():
            return WorkloadGenerator(
                tenants_from_fleet(max_median_bytes=2048),
                rate_rps=400,
                duration_seconds=2.0,
                seed=seed,
                process=process,
                payload_pool=payload_pool,
            )

        requests = list(generator().generate())
        assert len(requests) > 400
        assert len({r.tenant for r in requests}) == 4
        assert requests == _generate_with_rng_choice(generator())

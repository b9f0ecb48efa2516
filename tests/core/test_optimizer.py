"""CompOpt optimizer tests: constraints, ranking, search strategies."""

import pytest

from repro.core import (
    CompEngine,
    CompOpt,
    CompressionConfig,
    CostModel,
    CostParameters,
    MaxBlockDecodeLatency,
    MinCompressionSpeed,
)
from repro.core.config import config_grid
from repro.core.search import EvolutionarySearch, ExhaustiveSearch, RandomSearch
from repro.corpus import generate_records


@pytest.fixture(scope="module")
def engine():
    return CompEngine([generate_records(8192, seed=s) for s in range(2)])


@pytest.fixture(scope="module")
def cost_model():
    return CostModel(
        CostParameters.from_price_book(beta=1e-6, retention_days=30.0)
    )


@pytest.fixture(scope="module")
def grid():
    return config_grid(["zstd", "lz4", "zlib"], levels=[1, 3, 6, 9])


class TestOptimize:
    def test_ranked_ascending_by_cost(self, engine, cost_model, grid):
        result = CompOpt(engine, cost_model).optimize(grid)
        costs = [r.total_cost for r in result.ranked]
        assert costs == sorted(costs)
        assert len(result.ranked) == len(grid)

    def test_best_is_feasible_minimum(self, engine, cost_model, grid):
        opt = CompOpt(engine, cost_model, [MinCompressionSpeed(50e6)])
        result = opt.optimize(grid)
        assert result.best is not None
        assert result.best.feasible
        feasible_costs = [r.total_cost for r in result.ranked if r.feasible]
        assert result.best.total_cost == min(feasible_costs)

    def test_unsatisfiable_requirements_give_no_best(self, engine, cost_model, grid):
        opt = CompOpt(engine, cost_model, [MinCompressionSpeed(1e15)])
        result = opt.optimize(grid)
        assert result.best is None
        assert result.best_any is not None

    def test_constraint_filters_slow_configs(self, engine, cost_model, grid):
        opt = CompOpt(engine, cost_model, [MinCompressionSpeed(200e6)])
        result = opt.optimize(grid)
        for ranked in result.ranked:
            if ranked.feasible:
                assert ranked.metrics.compression_speed >= 200e6

    def test_multiple_requirements_all_apply(self, engine, cost_model, grid):
        opt = CompOpt(
            engine,
            cost_model,
            [MinCompressionSpeed(300e6), MaxBlockDecodeLatency(5e-6)],
        )
        result = opt.optimize(grid)
        for ranked in result.ranked:
            metrics = ranked.metrics
            assert ranked.feasible == (
                metrics.compression_speed >= 300e6
                and metrics.decode_seconds_per_block <= 5e-6
            )
        assert 0 < sum(r.feasible for r in result.ranked) < len(grid)

    def test_block_latency_requirement(self, engine, cost_model):
        grid = [
            CompressionConfig("zstd", 1, 1024),
            CompressionConfig("zstd", 1, 65536),
        ]
        # Find a threshold between the two block sizes' decode latencies.
        small = engine.measure(grid[0])
        large = engine.measure(grid[1])
        threshold = (
            small.decode_seconds_per_block + large.decode_seconds_per_block
        ) / 2
        opt = CompOpt(engine, cost_model, [MaxBlockDecodeLatency(threshold)])
        result = opt.optimize(grid)
        feasibility = {r.config.block_size: r.feasible for r in result.ranked}
        assert feasibility[1024] and not feasibility[65536]

    def test_requirement_descriptions(self):
        assert "200" in MinCompressionSpeed(200e6).describe()
        assert "ms" in MaxBlockDecodeLatency(8e-5).describe()


class TestSearchStrategies:
    def test_exhaustive_evaluates_all(self, engine, cost_model, grid):
        opt = CompOpt(engine, cost_model, strategy=ExhaustiveSearch())
        assert len(opt.optimize(grid).ranked) == len(grid)

    def test_random_respects_budget(self, engine, cost_model, grid):
        opt = CompOpt(engine, cost_model, strategy=RandomSearch(budget=4, seed=1))
        assert len(opt.optimize(grid).ranked) == 4

    def test_random_budget_larger_than_grid(self, engine, cost_model, grid):
        opt = CompOpt(engine, cost_model, strategy=RandomSearch(budget=999))
        assert len(opt.optimize(grid).ranked) == len(grid)

    def test_random_invalid_budget(self):
        with pytest.raises(ValueError):
            RandomSearch(budget=0)

    def test_evolutionary_finds_near_best(self, engine, cost_model, grid):
        exhaustive = CompOpt(engine, cost_model).optimize(grid)
        evolutionary = CompOpt(
            engine,
            cost_model,
            strategy=EvolutionarySearch(generations=5, population=4, seed=2),
        ).optimize(grid)
        best_total = exhaustive.best_any.total_cost
        found_total = evolutionary.best_any.total_cost
        assert found_total <= best_total * 1.25

    def test_evolutionary_evaluates_fewer_than_grid_on_big_spaces(
        self, engine, cost_model
    ):
        big_grid = config_grid(["zstd"], levels=range(-5, 23))
        opt = CompOpt(
            engine,
            cost_model,
            strategy=EvolutionarySearch(generations=2, population=4, seed=3),
        )
        result = opt.optimize(big_grid)
        assert len(result.ranked) < len(big_grid)

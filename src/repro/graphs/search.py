"""GraphSearch: CompOpt strategy that mutates graph shapes, and training.

The flat search spaces in :mod:`repro.core.search` enumerate (algorithm,
level, block size) tuples. Graphs add a combinatorial axis — node kinds,
parameters, and topology — so exhaustive enumeration is out; this module
contributes the evolutionary operators the paper anticipates ("random
sampling ... or genetic algorithm", Section V-A) specialized to
transform DAGs:

- **leaf choice**: swap a leaf's (codec, level);
- **parameter moves**: nudge a transform's width/delimiter/lane count;
- **topology moves**: wrap a node in a value transform, unwrap one,
  collapse a subtree to a leaf, or re-split a leaf with a splitter.

Candidates are registered in the process-local graph registry under
fingerprint-derived names and evaluated through the ordinary CompOpt
``evaluate`` callback as ``CompressionConfig("graph:cand-<fp>", 1)`` —
the strategy plugs into :class:`repro.core.optimizer.CompOpt` unchanged.
Everything is driven by one seeded ``random.Random`` and iterates only
insertion-ordered structures, so a (seed, samples) pair always produces
the same winner, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CompressionConfig, config_grid
from repro.core.costmodel import CostModel, CostParameters
from repro.core.engine import CompEngine
from repro.core.optimizer import CompOpt, OptimizationResult, RankedConfig
from repro.core.search import SearchStrategy
from repro.graphs.model import (
    GraphSpecError,
    MAX_LANES,
    Spec,
    VALUE_WIDTHS,
    children_of,
    iter_paths,
    node_at,
    replace_at,
    spec_fingerprint,
    spec_label,
    validate_spec,
)
from repro.graphs.registry import register_graph

#: leaf menu explored by mutations: codec → candidate levels
LEAF_MENU: Dict[str, Tuple[int, ...]] = {
    "zstd": (1, 3, 6, 9, 12),
    "zlib": (6, 9),
    "lz4": (1, 9),
}

#: delimiters worth trying on datacenter payloads: | , " \n \t space : NUL
DELIM_MENU = (124, 44, 34, 10, 9, 32, 58, 0)

#: prefix for search-candidate registry names
CANDIDATE_PREFIX = "cand"


def candidate_name(spec: Spec) -> str:
    return f"{CANDIDATE_PREFIX}-{spec_fingerprint(spec)}"


def default_flat_candidates() -> List[CompressionConfig]:
    """The flat (codec, level) grid graph candidates must beat."""
    configs: List[CompressionConfig] = []
    for codec, levels in sorted(LEAF_MENU.items()):
        configs.extend(config_grid([codec], levels))
    return configs


class GraphSearch(SearchStrategy):
    """Evolutionary search over graph specs, seeded with shape templates.

    ``run`` first evaluates the flat candidate grid it is handed (the
    baseline the graphs must beat), then evolves the seed specs for
    ``generations`` rounds of mutate-and-evaluate, keeping the
    cheapest-by-total-cost survivors as parents.
    """

    def __init__(
        self,
        seeds: Sequence[Spec],
        generations: int = 3,
        population: int = 4,
        seed: int = 0,
    ) -> None:
        if not seeds:
            raise ValueError("GraphSearch needs at least one seed spec")
        for spec in seeds:
            validate_spec(spec)
        self.seeds = [dict(s) for s in seeds]
        self.generations = generations
        self.population = population
        self.seed = seed
        #: registry name → spec for every candidate evaluated, in order
        self.evaluated_specs: Dict[str, Spec] = {}

    # -- mutation operators --------------------------------------------------

    def _mutate(self, rng: random.Random, spec: Spec) -> Optional[Spec]:
        """One mutated copy of ``spec``, or None if the move is invalid."""
        operators: List[Callable[[random.Random, Spec], Optional[Spec]]] = [
            self._mutate_leaf,
            self._mutate_wrap,
            self._mutate_unwrap,
            self._mutate_param,
            self._mutate_collapse,
        ]
        op = rng.choice(operators)
        mutated = op(rng, spec)
        if mutated is None:
            return None
        try:
            validate_spec(mutated)
        except GraphSpecError:
            return None
        return mutated

    @staticmethod
    def _paths(spec: Spec, want: Callable[[Spec], bool]) -> List[tuple]:
        return [path for path, node in iter_paths(spec) if want(node)]

    def _mutate_leaf(self, rng: random.Random, spec: Spec) -> Optional[Spec]:
        """Swap one leaf's (codec, level) within the menu."""
        paths = self._paths(spec, lambda n: n.get("kind") == "leaf")
        if not paths:
            return None
        path = rng.choice(paths)
        codec = rng.choice(sorted(LEAF_MENU))
        level = rng.choice(LEAF_MENU[codec])
        return replace_at(
            spec, path, {"kind": "leaf", "codec": codec, "level": level}
        )

    def _mutate_wrap(self, rng: random.Random, spec: Spec) -> Optional[Spec]:
        """Insert a single-output value transform above a node."""
        paths = [path for path, __ in iter_paths(spec)]
        path = rng.choice(paths)
        kind = rng.choice(("transpose", "delta", "zigzag", "varint"))
        if kind == "transpose":
            width = rng.choice((2, 4, 8, 16))
        else:
            width = rng.choice(VALUE_WIDTHS)
        target = node_at(spec, path)
        return replace_at(
            spec, path, {"kind": kind, "width": width, "child": target}
        )

    def _mutate_unwrap(self, rng: random.Random, spec: Spec) -> Optional[Spec]:
        """Remove one single-child transform, splicing its child up."""
        paths = self._paths(spec, lambda n: "child" in n)
        if not paths:
            return None
        path = rng.choice(paths)
        return replace_at(spec, path, node_at(spec, path)["child"])

    def _mutate_collapse(self, rng: random.Random, spec: Spec) -> Optional[Spec]:
        """Collapse a multi-child subtree to a single flat leaf."""
        paths = self._paths(spec, lambda n: "children" in n)
        if not paths:
            return None
        path = rng.choice(paths)
        codec = rng.choice(sorted(LEAF_MENU))
        return replace_at(
            spec,
            path,
            {"kind": "leaf", "codec": codec, "level": LEAF_MENU[codec][-1]},
        )

    def _mutate_param(self, rng: random.Random, spec: Spec) -> Optional[Spec]:
        """Nudge one transform parameter in place."""
        paths = self._paths(
            spec, lambda n: n.get("kind") not in ("leaf", "store")
        )
        if not paths:
            return None
        path = rng.choice(paths)
        node = dict(node_at(spec, path))
        kind = node["kind"]
        if kind == "tokenize":
            choice = rng.choice(("delim", "lanes", "reset"))
            if choice == "delim":
                node["delim"] = rng.choice(DELIM_MENU)
            elif choice == "reset":
                if "reset" in node and rng.random() < 0.5:
                    node.pop("reset")
                else:
                    node["reset"] = rng.choice(DELIM_MENU)
            else:
                lanes = int(node["lanes"]) + rng.choice((-1, 1))
                if not 1 <= lanes <= MAX_LANES:
                    return None
                kids = children_of(node)
                lengths, lane_kids = kids[0], kids[1:]
                if lanes > len(lane_kids):
                    lane_kids = lane_kids + [dict(lane_kids[-1])]
                else:
                    lane_kids = lane_kids[:lanes]
                node["lanes"] = lanes
                node["children"] = [lengths] + lane_kids
        elif kind in ("transpose", "delta", "zigzag", "varint"):
            menu = (2, 4, 8, 16) if kind == "transpose" else VALUE_WIDTHS
            node["width"] = rng.choice(menu)
        elif kind == "floatsplit":
            node["hi"] = rng.choice(tuple(range(1, int(node["width"]))))
        elif kind == "headsplit":
            node["marker"] = rng.choice(DELIM_MENU)
        elif kind == "slice":
            sizes = [int(s) for s in node["sizes"]]
            index = rng.randrange(len(sizes))
            step = rng.choice((-64, -8, 8, 64))
            sizes[index] = max(0, sizes[index] + step)
            node["sizes"] = sizes
        return replace_at(spec, path, node)

    # -- the strategy --------------------------------------------------------

    def _evaluate_spec(
        self,
        spec: Spec,
        evaluate: Callable[[CompressionConfig], RankedConfig],
        seen: Dict[str, RankedConfig],
    ) -> Optional[RankedConfig]:
        name = candidate_name(spec)
        if name in seen:
            return None
        register_graph(name, spec)
        self.evaluated_specs[name] = spec
        ranked = evaluate(CompressionConfig(f"graph:{name}", 1))
        seen[name] = ranked
        return ranked

    def run(
        self,
        candidates: Sequence[CompressionConfig],
        evaluate: Callable[[CompressionConfig], RankedConfig],
    ) -> List[RankedConfig]:
        rng = random.Random(self.seed)
        ranked: List[RankedConfig] = [evaluate(c) for c in candidates]
        seen: Dict[str, RankedConfig] = {}
        for spec in self.seeds:
            self._evaluate_spec(spec, evaluate, seen)
        for __ in range(self.generations):
            survivors = sorted(seen.items(), key=lambda kv: kv[1].total_cost)
            parents = [
                self.evaluated_specs[name]
                for name, __r in survivors[: self.population]
            ]
            for parent in parents:
                mutated = self._mutate(rng, parent)
                if mutated is not None:
                    self._evaluate_spec(mutated, evaluate, seen)
        ranked.extend(seen.values())
        return ranked


# -- training -----------------------------------------------------------------


#: shape templates the per-category training starts from; mirrors what a
#: format engineer would sketch after one look at the payload
SEED_SPECS: Dict[str, List[Spec]] = {
    "record": [
        {
            "kind": "tokenize",
            "delim": 124,
            "lanes": 6,
            "reset": 10,
            "children": [{"kind": "leaf", "codec": "zlib", "level": 9}] * 7,
        },
        {
            "kind": "tokenize",
            "delim": 124,
            "lanes": 4,
            "reset": 10,
            "children": [{"kind": "leaf", "codec": "zstd", "level": 6}] * 5,
        },
    ],
    "text": [
        {
            "kind": "tokenize",
            "delim": 34,
            "lanes": 8,
            "reset": 10,
            "children": [{"kind": "leaf", "codec": "zlib", "level": 9}] * 9,
        },
        {
            "kind": "tokenize",
            "delim": 44,
            "lanes": 7,
            "reset": 10,
            "children": [{"kind": "leaf", "codec": "zstd", "level": 9}] * 8,
        },
    ],
    "float": [
        {
            "kind": "headsplit",
            "marker": 0,
            "children": [
                {"kind": "leaf", "codec": "zstd", "level": 3},
                {
                    "kind": "slice",
                    "sizes": [9828],
                    "children": [
                        {"kind": "leaf", "codec": "zlib", "level": 9},
                        {
                            "kind": "varint",
                            "width": 8,
                            "child": {"kind": "leaf", "codec": "zlib", "level": 9},
                        },
                    ],
                },
            ],
        },
        {
            "kind": "transpose",
            "width": 8,
            "child": {"kind": "leaf", "codec": "zstd", "level": 9},
        },
    ],
}


@dataclass(frozen=True)
class TrainResult:
    """Outcome of one per-category training run."""

    category: str
    #: winning spec (lowest total cost among graph candidates)
    spec: Spec
    #: its registry candidate name (``cand-<fingerprint>``)
    name: str
    ranked_graph: RankedConfig
    #: best flat candidate from the same run, for the comparison
    ranked_flat: RankedConfig
    result: OptimizationResult

    @property
    def beats_flat(self) -> bool:
        return (
            self.ranked_graph.metrics.ratio > self.ranked_flat.metrics.ratio
        )

    def describe(self) -> str:
        g, f = self.ranked_graph.metrics, self.ranked_flat.metrics
        return (
            f"{self.category}: {spec_label(self.spec)} "
            f"ratio={g.ratio:.3f} vs flat "
            f"{self.ranked_flat.config.label()} ratio={f.ratio:.3f}"
        )


def default_cost_model() -> CostModel:
    """Flat unit-price cost model used when the caller has no service."""
    return CostModel(
        CostParameters(
            alpha_compute=1.0, alpha_storage=1e-7, alpha_network=1e-6
        )
    )


def train_graph(
    category: str,
    samples: Sequence[bytes],
    generations: int = 3,
    population: int = 4,
    seed: int = 0,
) -> TrainResult:
    """Train one category's graph against its samples.

    Deterministic per ``(category, samples, generations, population,
    seed)``; the returned spec is what ``repro graph train`` prints and
    what gets pinned into :mod:`repro.graphs.trained`.
    """
    if category not in SEED_SPECS:
        raise ValueError(
            f"unknown category {category!r}; have {sorted(SEED_SPECS)}"
        )
    engine = CompEngine(samples)
    strategy = GraphSearch(
        SEED_SPECS[category],
        generations=generations,
        population=population,
        seed=seed,
    )
    optimizer = CompOpt(engine, default_cost_model(), strategy=strategy)
    result = optimizer.optimize(default_flat_candidates())
    graph_ranked = [
        r for r in result.ranked if r.config.algorithm.startswith("graph:")
    ]
    flat_ranked = [
        r
        for r in result.ranked
        if not r.config.algorithm.startswith("graph:")
    ]
    best_graph = min(graph_ranked, key=lambda r: r.total_cost)
    best_flat = min(flat_ranked, key=lambda r: r.total_cost)
    name = best_graph.config.algorithm.split(":", 1)[1]
    return TrainResult(
        category=category,
        spec=strategy.evaluated_specs[name],
        name=name,
        ranked_graph=best_graph,
        ranked_flat=best_flat,
        result=result,
    )

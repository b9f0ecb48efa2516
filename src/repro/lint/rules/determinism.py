"""Rule family D: the byte-identical-scorecard contract.

Every headline artifact of this repo -- chaos scorecards, serve-sim and
cluster-sim reports, SLO timelines, the committed benchmark trajectory
-- is promised to be a pure function of (seed, scenario, scale). These
rules mechanically enforce the three ways that promise leaks in Python:

- **D001** wall-clock reads. ``time.time()``/``monotonic()``/
  ``perf_counter()`` and ``datetime.now()`` change between runs by
  definition. Simulated paths take an injected clock
  (:class:`repro.resilience.clock.SimClock`); genuinely-wall telemetry
  paths (span timing, measured sweeps) carry a justified suppression.
- **D002** salted or unseeded randomness. The builtin ``hash()`` is
  salted per process (``PYTHONHASHSEED``), the module-level ``random.*``
  functions share hidden global state, ``random.Random()`` and
  ``np.random.default_rng()`` without a seed read the OS entropy pool,
  and ``os.urandom``/``secrets``/``uuid4`` are nondeterministic by
  design. Use :func:`repro.cluster.ring.stable_hash` and explicitly
  seeded generators.
- **D003** nondeterministic iteration feeding output. Set iteration
  order is hash-salted; directory listings are filesystem-order. Both
  must pass through ``sorted()`` before they can reach anything
  serialized. (Dict iteration is insertion-ordered since 3.7 and is
  deliberately *not* flagged.)
- **D004** non-canonical JSON. ``json.dumps`` without
  ``sort_keys=True`` spells the same data differently depending on
  construction order; every export path must be canonical (see
  :func:`repro.obs.export.json_line`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint.finding import Finding
from repro.lint.rules import Rule, register

#: the one module allowed to read wall clocks without a suppression:
#: it exists to *inject* time everywhere else
_CLOCK_MODULES = ("repro/resilience/clock.py",)

_TIME_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime",
}
_DATETIME_FUNCS = {"now", "utcnow", "today"}

_RANDOM_MODULE_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate", "randbytes", "getrandbits", "seed",
}
_NP_RANDOM_SEEDED_OK = {"default_rng", "Generator", "RandomState", "SeedSequence"}


def _call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call target, e.g. ``time.monotonic`` or ``hash``."""
    parts = []
    target = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
        return ".".join(reversed(parts))
    return None


def _wrapped_in_sorted(ctx, node: ast.AST) -> bool:
    """True when ``node`` is directly an argument of ``sorted()``/``list()+sort``-style normalization."""
    link = ctx.parent(node)
    if link is None:
        return False
    parent, __ = link
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id in ("sorted", "min", "max", "sum", "len", "set", "frozenset")
    )


@register
class WallTimeRule(Rule):
    id = "D001"
    title = "wall-clock read outside clock-injection modules"
    rationale = (
        "Wall time differs between runs by definition; simulated paths must "
        "take an injected SimClock, and telemetry-only wall reads must carry "
        "a justified suppression so the exception is visible in the diff."
    )

    def is_exempt(self, ctx) -> bool:
        return any(ctx.path.endswith(mod) for mod in _CLOCK_MODULES)

    def check(self, ctx) -> Iterator[Finding]:
        # names imported straight off the time module, e.g.
        # ``from time import perf_counter``
        bare_time_names = {
            local: original
            for local, (module, original) in ctx.from_import_origins.items()
            if module == "time" and original in _TIME_FUNCS
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            flagged = None
            if name in bare_time_names:
                flagged = f"time.{bare_time_names[name]}()"
            elif "." in name:
                head, __, tail = name.rpartition(".")
                if head == "time" and tail in _TIME_FUNCS:
                    flagged = f"{name}()"
                elif tail in _DATETIME_FUNCS and (
                    head in ("datetime", "date")
                    or head.endswith(".datetime")
                    or head.endswith(".date")
                ):
                    flagged = f"{name}()"
            if flagged:
                yield self.finding(
                    ctx,
                    node,
                    f"{flagged} reads the wall clock; inject a clock "
                    "(resilience.clock.SimClock) or suppress with "
                    "'# repro: lint-ok[D001] -- <why this is telemetry-only>'",
                )


@register
class SaltedRandomnessRule(Rule):
    id = "D002"
    title = "builtin-salted or unseeded randomness"
    rationale = (
        "builtin hash() is salted per process (PYTHONHASHSEED); module-level "
        "random.* uses hidden shared state; Random()/default_rng() without a "
        "seed read OS entropy. All of them move scorecards between runs. Use "
        "cluster.ring.stable_hash and explicitly seeded generators."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            message = None
            if name == "hash":
                message = (
                    "builtin hash() is salted per process; use "
                    "repro.cluster.ring.stable_hash (blake2b) instead"
                )
            elif name.startswith("random."):
                tail = name.split(".", 1)[1]
                if tail in _RANDOM_MODULE_FUNCS:
                    message = (
                        f"{name}() uses the hidden module-global RNG; "
                        "construct random.Random(seed) explicitly"
                    )
                elif tail == "Random" and not node.args and not node.keywords:
                    message = (
                        "random.Random() without a seed reads OS entropy; "
                        "pass an explicit (string) seed"
                    )
                elif tail == "SystemRandom":
                    message = "random.SystemRandom is nondeterministic by design"
            elif ".random." in name or name.startswith("numpy.random"):
                head, __, tail = name.rpartition(".")
                if head in ("np.random", "numpy.random"):
                    if tail in _NP_RANDOM_SEEDED_OK:
                        if not node.args and not node.keywords:
                            message = (
                                f"{name}() without a seed reads OS entropy; "
                                "pass an explicit seed"
                            )
                    else:
                        message = (
                            f"{name}() drives the legacy numpy global RNG; "
                            "use np.random.default_rng(seed)"
                        )
            elif name == "os.urandom" or name.startswith("secrets."):
                message = f"{name}() is OS entropy; seeded paths cannot use it"
            elif name in ("uuid.uuid1", "uuid.uuid4"):
                message = f"{name}() is nondeterministic; derive ids from seeds"
            if message:
                yield self.finding(ctx, node, message)


@register
class UnorderedIterationRule(Rule):
    id = "D003"
    title = "nondeterministic iteration order feeding output"
    rationale = (
        "Set iteration order is hash-salted and directory listings are "
        "filesystem-order; both must pass through sorted() before anything "
        "derived from them is serialized. Dict iteration is insertion-ordered "
        "(3.7+) and not flagged."
    )

    _LISTING_CALLS = {
        "os.listdir": "os.listdir",
        "os.scandir": "os.scandir",
        "glob.glob": "glob.glob",
        "glob.iglob": "glob.iglob",
    }

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in self._LISTING_CALLS and not _wrapped_in_sorted(ctx, node):
                    yield self.finding(
                        ctx,
                        node,
                        f"{name}() returns filesystem order; wrap in sorted()",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("iterdir", "glob", "rglob")
                    and not _wrapped_in_sorted(ctx, node)
                    and self._is_iterated(ctx, node)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f".{node.func.attr}() yields filesystem order; "
                        "wrap in sorted()",
                    )
            iterable = self._set_iteration(node)
            if iterable is not None:
                yield self.finding(
                    ctx,
                    iterable,
                    "iterating a set is hash-order; wrap in sorted()",
                )

    @staticmethod
    def _is_set(node: ast.AST) -> bool:
        return isinstance(node, (ast.Set, ast.SetComp)) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _set_iteration(self, node: ast.AST) -> Optional[ast.AST]:
        """The offending set node when ``node`` iterates one directly."""
        if isinstance(node, (ast.For, ast.AsyncFor)) and self._is_set(node.iter):
            return node.iter
        if isinstance(node, ast.comprehension) and self._is_set(node.iter):
            return node.iter
        return None

    def _is_iterated(self, ctx, node: ast.AST) -> bool:
        """Path.glob()-style calls only matter when looped over directly."""
        link = ctx.parent(node)
        if link is None:
            return False
        parent, field_name = link
        return (
            isinstance(parent, (ast.For, ast.AsyncFor, ast.comprehension))
            and field_name == "iter"
        )


@register
class CanonicalJsonRule(Rule):
    id = "D004"
    title = "json.dumps without sort_keys=True"
    rationale = (
        "Two runs that computed the same data must spell it identically, or "
        "scorecard/trajectory/JSONL diffs go noisy; every json.dumps must "
        "pass sort_keys=True (see obs.export.json_line) or carry a justified "
        "suppression naming the wire format it mirrors."
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name not in ("json.dumps", "json.dump"):
                continue
            sort_keys = None
            for keyword in node.keywords:
                if keyword.arg == "sort_keys":
                    sort_keys = keyword.value
            if (
                isinstance(sort_keys, ast.Constant)
                and sort_keys.value is True
            ):
                continue
            if sort_keys is None:
                detail = "defaults to sort_keys=False"
            elif isinstance(sort_keys, ast.Constant):
                detail = "passes sort_keys=False"
            else:
                continue  # dynamic sort_keys: assume the caller knows
            yield self.finding(
                ctx,
                node,
                f"{name}() {detail}; canonical export requires "
                "sort_keys=True (obs.export.json_line does this)",
            )

"""Rule base class and the rule registry.

Rules are small AST visitors grouped into families by contract:

- **D (determinism)** -- the byte-identical-scorecard contract:
  no wall-clock reads, no process-salted or unseeded randomness, no
  nondeterministic iteration order, canonical JSON on export paths
  (:mod:`repro.lint.rules.determinism`);
- **E (exception contracts)** -- codec decode boundaries convert
  low-level decode explosions into :class:`CorruptDataError`
  (:mod:`repro.lint.rules.contracts`);
- **O (obs contracts)** -- instrumentation is zero-cost when disabled:
  every ``record_*`` hook call sits behind an enabled/recorder guard
  (:mod:`repro.lint.rules.obs`);
- **U (unread surface)** -- no public name in ``src/`` whose only
  readers are tests; the one whole-tree rule
  (:mod:`repro.lint.rules.surface`).

Each rule declares an id, a severity, and a one-line rationale (the
``repro lint --list-rules`` catalog); ``check`` yields findings over a
parsed :class:`~repro.lint.engine.FileContext`. Registration happens at
import via the :func:`register` decorator, mirroring the codec registry
idiom in :mod:`repro.codecs.base`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Type

from repro.lint.finding import ERROR, Finding


class Rule:
    """One named, self-contained contract check."""

    #: registry key, e.g. ``"D001"``
    id: str = "X000"
    #: short human label for the catalog
    title: str = ""
    severity: str = ERROR
    #: why this contract exists (one paragraph, shown by --list-rules)
    rationale: str = ""

    def is_exempt(self, ctx) -> bool:
        """Whole-file exemption (e.g. the clock-injection module itself)."""
        return False

    def check(self, ctx) -> Iterator[Finding]:
        raise NotImplementedError

    def check_tree(self, contexts: Sequence) -> Iterator[Finding]:
        """Findings that need every linted file at once (family U);
        runs after the per-file pass, before waivers are applied."""
        return iter(())

    def finding(self, ctx, node, message: str) -> Finding:
        """Build a finding anchored at ``node`` in ``ctx``'s file."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = ctx.lines[line - 1] if line <= len(ctx.lines) else ""
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
            line_text=text,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add ``cls`` to the registry under its id."""
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, sorted by id."""
    _load()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rules(ids: Iterable[str]) -> List[Rule]:
    """Instantiate the named rules; unknown ids raise ValueError."""
    _load()
    out: List[Rule] = []
    for rule_id in sorted(set(ids)):
        if rule_id not in _REGISTRY:
            raise ValueError(
                f"unknown rule {rule_id!r}; available: {sorted(_REGISTRY)}"
            )
        out.append(_REGISTRY[rule_id]())
    return out


def _load() -> None:
    """Import the rule modules (idempotent; they self-register)."""
    from repro.lint.rules import contracts, determinism, obs, surface  # noqa: F401

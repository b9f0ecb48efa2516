"""Declarative SLOs with multi-window, multi-burn-rate alerting.

An SLO here is a *query over a span of windows* (from
:mod:`repro.obs.timeseries`) reduced to one number, the **burn rate**:
how fast the objective's error budget is being consumed, normalized so
``1.0`` means "exactly at the objective". Two flavors cover everything
the serving and chaos planes need:

- :class:`EventRateSLO` — "at most ``budget`` of events may be bad"
  (shed rate, failure rate). Burn = observed bad fraction / budget.
- :class:`BoundSLO` — "this signal must stay below/above a bound"
  (p99 latency, goodput, compression-ratio-lost). Burn = signal / bound
  for upper bounds, bound / signal for lower bounds.

Alerting follows the SRE multi-window multi-burn-rate recipe: a rule
fires only when the burn rate exceeds its threshold over *both* a long
window (the condition is significant) and a short window (it is still
happening), so a brief spike cannot page and a slow leak cannot hide.
Fast rules carry high thresholds and severity PAGE; slow rules carry low
thresholds and severity WARN. Each SLO owns an
:class:`AlertStateMachine` stepping OK → WARN → PAGE, with hysteresis on
the way down (``clear_after`` consecutive quiet evaluations per step) so
alert state does not flap at the threshold.

Everything is a pure function of the recorded windows, so a seeded
simulation renders a byte-identical alert timeline — the property
``repro slo`` certifies in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import WindowSnapshot, merge_windows

#: alert states, in increasing severity
OK = "ok"
WARN = "warn"
PAGE = "page"
_SEVERITY_RANK = {OK: 0, WARN: 1, PAGE: 2}


def format_states(states: Dict[str, str]) -> str:
    """``name=state`` pairs in name order; ``ok`` when there are none."""
    pairs = sorted(states.items())
    return " ".join(f"{name}={state}" for name, state in pairs) or "ok"


def format_transition(transition: "AlertTransition", at_text: str) -> str:
    """The alert line of every scorecard and timeline; the caller spells
    the time (``0.250 s``, ``op 75``) and adds its own indent."""
    return (
        f"! {at_text}  {transition.slo}: {transition.from_state} -> "
        f"{transition.to_state} ({transition.reason})"
    )


def worst_of(states: Iterable[str]) -> str:
    """The most severe of ``states``; ``ok`` when there are none."""
    return max(states, key=_SEVERITY_RANK.__getitem__, default=OK)


@dataclass(frozen=True)
class BurnRule:
    """One (long window, short window, threshold) → severity rule."""

    severity: str
    #: windows in the long (significance) view
    long_windows: int
    #: windows in the short (recency) view; must be <= long_windows
    short_windows: int
    #: burn rate both views must reach for the rule to fire
    threshold: float

    def __post_init__(self) -> None:
        if self.severity not in (WARN, PAGE):
            raise ValueError(f"severity must be warn or page, got {self.severity!r}")
        if self.short_windows < 1 or self.long_windows < self.short_windows:
            raise ValueError("need 1 <= short_windows <= long_windows")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


#: the SRE fast/slow pairing, scaled to simulation-length runs: a fast
#: burn (budget gone in ~1/6 of the rules' long view) pages, a slow
#: sustained burn warns
DEFAULT_RULES: Tuple[BurnRule, ...] = (
    BurnRule(PAGE, long_windows=4, short_windows=2, threshold=6.0),
    BurnRule(WARN, long_windows=12, short_windows=3, threshold=1.5),
)


def metric_total(registry: MetricsRegistry, name: str, **match) -> float:
    """Sum a metric's samples whose labels match every ``match`` pair —
    the query primitive SLO signal callables are built from."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    wanted = {k: str(v) for k, v in match.items()}
    total = 0.0
    for key, value in metric.samples():
        labels = dict(key)
        if all(labels.get(k) == v for k, v in wanted.items()):
            total += value
    return total


class SLO:
    """Base: a named objective reducible to a burn rate over windows."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description

    # repro: lint-ok[U001] -- the reference SLOEvaluator's one-merge fold
    # (_burn) is asserted bit-equal to (docs/observability.md)
    def burn_rate(self, windows: Sequence[WindowSnapshot]) -> Optional[float]:
        """Burn over ``windows`` (1.0 = at the objective); None = no signal."""
        return self._burn(merge_windows(windows), windows)

    def _burn(
        self, merged: MetricsRegistry, windows: Sequence[WindowSnapshot]
    ) -> Optional[float]:
        """``burn_rate`` given ``merged == merge_windows(windows)``: what a
        subclass defines, and what :class:`SLOEvaluator` calls so one merge
        serves every SLO."""
        raise NotImplementedError


class EventRateSLO(SLO):
    """At most ``budget`` (fraction) of events may be bad."""

    def __init__(
        self,
        name: str,
        bad: Callable[[MetricsRegistry], float],
        total: Callable[[MetricsRegistry], float],
        budget: float,
        description: str = "",
    ) -> None:
        super().__init__(name, description)
        if not 0 < budget < 1:
            raise ValueError("budget must be a fraction in (0, 1)")
        self.bad = bad
        self.total = total
        self.budget = budget

    def _burn(
        self, merged: MetricsRegistry, windows: Sequence[WindowSnapshot]
    ) -> Optional[float]:
        total = self.total(merged)
        if total <= 0:
            return None
        return (self.bad(merged) / total) / self.budget


class BoundSLO(SLO):
    """A scalar signal must stay under (or over) a bound."""

    def __init__(
        self,
        name: str,
        value: Callable[[MetricsRegistry], Optional[float]],
        bound: float,
        mode: str = "upper",
        description: str = "",
    ) -> None:
        super().__init__(name, description)
        if bound <= 0:
            raise ValueError("bound must be positive")
        if mode not in ("upper", "lower"):
            raise ValueError("mode must be 'upper' or 'lower'")
        self.value = value
        self.bound = bound
        self.mode = mode

    def _burn(
        self, merged: MetricsRegistry, windows: Sequence[WindowSnapshot]
    ) -> Optional[float]:
        signal = self.value(merged)
        if signal is None:
            return None
        if self.mode == "upper":
            return signal / self.bound
        if signal <= 0:
            return float("inf")
        return self.bound / signal


@dataclass(frozen=True)
class AlertTransition:
    """One state-machine edge, stamped with the evaluation time."""

    at: float
    slo: str
    from_state: str
    to_state: str
    reason: str


class AlertStateMachine:
    """OK → WARN → PAGE with step-down hysteresis.

    Escalation is immediate (a PAGE rule firing from OK jumps straight
    to PAGE). De-escalation steps down one severity only after
    ``clear_after`` consecutive evaluations in which nothing at or above
    the current state fired, so one quiet window cannot clear a page.
    """

    def __init__(self, slo_name: str, clear_after: int = 2) -> None:
        if clear_after < 1:
            raise ValueError("clear_after must be at least 1")
        self.slo_name = slo_name
        self.clear_after = clear_after
        self.state = OK
        self._quiet = 0
        #: cumulative seconds spent in each state (by evaluation spans)
        self.seconds_in: Dict[str, float] = {OK: 0.0, WARN: 0.0, PAGE: 0.0}
        self._entered_at: Optional[float] = None

    def _account(self, at: float) -> None:
        if self._entered_at is not None:
            self.seconds_in[self.state] += max(0.0, at - self._entered_at)
        self._entered_at = at

    def evaluate(
        self, at: float, fired: Optional[str], reason: str = ""
    ) -> Optional[AlertTransition]:
        """Feed one evaluation; returns the transition, if any.

        ``fired`` is the highest severity whose rule fired (None = all
        quiet). Time spent in the outgoing state is accounted before the
        edge, so ``seconds_in`` always sums to the evaluated span.
        """
        self._account(at)
        current = _SEVERITY_RANK[self.state]
        incoming = _SEVERITY_RANK.get(fired, 0) if fired else 0
        if incoming > current:
            previous = self.state
            self.state = fired  # escalate immediately
            self._quiet = 0
            return AlertTransition(at, self.slo_name, previous, self.state, reason)
        if incoming == current and current > 0:
            self._quiet = 0  # still burning at this severity
            return None
        if current == 0:
            return None
        self._quiet += 1
        if self._quiet < self.clear_after:
            return None
        previous = self.state
        self.state = WARN if self.state == PAGE else OK
        self._quiet = 0
        return AlertTransition(
            at,
            self.slo_name,
            previous,
            self.state,
            reason or f"quiet for {self.clear_after} evaluations",
        )

    def finish(self, at: float) -> None:
        """Account state time up to ``at`` (end of run)."""
        self._account(at)


@dataclass(frozen=True)
class AlertSummary:
    """What one run's alert plane concluded: where every SLO ended, how
    long it paged and warned, and every edge on the way."""

    final_states: Dict[str, str]
    page_seconds: Dict[str, float]
    warn_seconds: Dict[str, float]
    transitions: Tuple[AlertTransition, ...]

    def total_page_seconds(self) -> float:
        return sum(self.page_seconds.values())

    def total_warn_seconds(self) -> float:
        return sum(self.warn_seconds.values())

    def worst_state(self) -> str:
        """The most severe state any SLO was ever in: every state but the
        initial ``ok`` is entered through a transition."""
        return worst_of(t.to_state for t in self.transitions)


class SLOEvaluator:
    """The alert plane of one run: the closed-window series, the SLOs
    evaluated over it window by window, and what they concluded."""

    def __init__(
        self,
        slos: Sequence[SLO],
        rules: Sequence[BurnRule] = DEFAULT_RULES,
    ) -> None:
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.slos = list(slos)
        #: rules evaluated PAGE-first so ``fired`` is the highest severity
        self.rules = sorted(
            rules, key=lambda r: -_SEVERITY_RANK[r.severity]
        )
        self.machines: Dict[str, AlertStateMachine] = {
            s.name: AlertStateMachine(s.name) for s in slos
        }
        #: every closed window evaluated so far, oldest first
        self.windows: List[WindowSnapshot] = []
        self.transitions: List[AlertTransition] = []
        #: burn rate per SLO and rule at the last close, most severe rule
        #: first (a rule after the one that fired is not evaluated)
        self.last_burns: Dict[str, Dict[str, Optional[float]]] = {}

    def _fired(
        self,
        slo: SLO,
        merged: Dict[int, MetricsRegistry],
    ) -> Tuple[Optional[str], str, Dict[str, Optional[float]]]:
        def burn(length: int) -> Optional[float]:
            view = self.windows[-length:]
            registry = merged.get(len(view))
            if registry is None:
                registry = merged[len(view)] = merge_windows(view)
            return slo._burn(registry, view)

        burns: Dict[str, Optional[float]] = {}
        for rule in self.rules:
            long_burn = burn(rule.long_windows)
            short_burn = burn(rule.short_windows)
            key = f"{rule.severity}:{rule.long_windows}w/{rule.short_windows}w"
            burns[key] = long_burn
            if (
                long_burn is not None
                and short_burn is not None
                and long_burn >= rule.threshold
                and short_burn >= rule.threshold
            ):
                reason = (
                    f"burn {long_burn:.2f} over {rule.long_windows}w and "
                    f"{short_burn:.2f} over {rule.short_windows}w "
                    f">= {rule.threshold:g}"
                )
                return rule.severity, reason, burns
        return None, "", burns

    def on_window(self, snapshot: WindowSnapshot) -> List[AlertTransition]:
        """Take ``snapshot``, the next closed window, into the series and
        evaluate every SLO at its end; returns the alert edges.

        Each distinct lookback ``windows[-n:]`` a rule reads is merged at
        most once per call, oldest window first, and that one registry is
        handed to every SLO — so each burn equals
        ``slo.burn_rate(windows[-n:])`` bit for bit."""
        self.windows.append(snapshot)
        #: windows in a lookback -> their merge, built on first use
        merged: Dict[int, MetricsRegistry] = {}
        edges: List[AlertTransition] = []
        for slo in self.slos:
            fired, reason, burns = self._fired(slo, merged)
            self.last_burns[slo.name] = burns
            edge = self.machines[slo.name].evaluate(snapshot.end, fired, reason)
            if edge is not None:
                edges.append(edge)
        self.transitions.extend(edges)
        return edges

    def burn(self, slo_name: str) -> Optional[float]:
        """The headline burn of one SLO at the last close: its most severe
        rule's long-window burn (None before any close, or no signal)."""
        return next(iter(self.last_burns.get(slo_name, {}).values()), None)

    def states(self) -> Dict[str, str]:
        return {name: m.state for name, m in self.machines.items()}

    def finish(self, idle_end: float) -> AlertSummary:
        """Account state time to the last window's end (``idle_end`` if no
        window ever closed) and sum the run up."""
        at = self.windows[-1].end if self.windows else idle_end
        for machine in self.machines.values():
            machine.finish(at)
        return AlertSummary(
            final_states=self.states(),
            page_seconds={n: m.seconds_in[PAGE] for n, m in self.machines.items()},
            warn_seconds={n: m.seconds_in[WARN] for n, m in self.machines.items()},
            transitions=tuple(self.transitions),
        )

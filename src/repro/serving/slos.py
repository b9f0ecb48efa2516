"""Serving-plane SLOs and the window-by-window alert timeline.

This is where the time-series layer (:mod:`repro.obs.timeseries`) and the
SLO layer (:mod:`repro.obs.slo`) meet the serving plane: the gateway and
the simulator record per-window metrics here, and the four serving SLOs
— shed rate, p99 latency, goodput, compression-ratio-lost — are defined
over those windows. The bicriteria trade the degradation ladder makes
(latency bought with ratio) becomes two SLOs evolving side by side
instead of two numbers at the end of a run.

The window registry is also the simulators' only traffic ledger:
:func:`traffic_counts` reads one window, one shard's run or a whole run
into the count columns every report and timeline row shows, and
:func:`traffic_lines` renders a run's counts and percentiles.

One deliberate definition: the **shed-rate SLO counts deadline
expirations as sheds**. The front door refusing a request (throttle,
shed) and the queue dropping it at the head because its deadline passed
are the same event from the client's perspective — work offered and not
served — and the queue module itself documents expiry as deadline-based
shedding. Under overload the ladder engages first (pressure-driven
degradation at dequeue), and only when degradation cannot buy enough
latency do deadlines start expiring, so the alert timeline shows
degrade-before-page in exactly that order.

Everything here is a pure function of the recorded windows; a seeded
simulation renders a byte-identical timeline (``repro slo`` certifies
this in CI by diffing two runs).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.export import json_line
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import (
    OK,
    AlertSummary,
    AlertTransition,
    BoundSLO,
    EventRateSLO,
    SLO,
    SLOEvaluator,
    format_states,
    format_transition,
    metric_total,
)
from repro.obs.timeseries import TimeSeriesRecorder, WindowSnapshot

# -- per-window metric schema (recorded by gateway + simulator) --------------

#: admission verdicts by tenant: verdict in admit/throttle/shed/expired
WINDOW_VERDICTS = "serving_window_verdicts_total"
#: served requests by tenant and rung label
WINDOW_SERVED = "serving_window_served_total"
#: degraded (rung > 0) serves by rung label
WINDOW_DEGRADED = "serving_window_degraded_total"
#: raw-passthrough fallbacks by tenant
WINDOW_RAW = "serving_window_raw_fallbacks_total"
#: byte volumes by kind: in_served/out/in_degraded/out_degraded/on_time
WINDOW_BYTES = "serving_window_bytes_total"
#: end-to-end latency by tenant (plus the "_all" aggregate)
WINDOW_LATENCY = "serving_window_latency_seconds"
#: queue wait, "_all" aggregate only
WINDOW_WAIT = "serving_window_wait_seconds"
#: completion outcomes: result in on_time/tardy
WINDOW_OUTCOMES = "serving_window_outcomes_total"
#: the tenant label value for the cross-tenant aggregate series
ALL_TENANTS = "_all"


# -- recording: one append per event, the schema expanded at window close ----

#: record kinds, the first field of every pending record
VERDICT, SERVED, COMPLETION = 0, 1, 2


class WindowRecorder(TimeSeriesRecorder):
    """The serving plane's recorder: the ``record_window_*`` hooks append
    one tuple per event to :attr:`pending`, and :meth:`registry` (which
    window close and ``flush`` read through) folds them into the
    in-progress window first, so every reader sees the registry the
    per-event updates would have built."""

    def __init__(self, width_seconds: float) -> None:
        super().__init__(width_seconds)
        #: this window's records not yet folded, in arrival order
        self.pending: List[tuple] = []

    def registry(self) -> MetricsRegistry:
        if self.pending:
            fold_window_records(self._current, self.pending)
            self.pending.clear()
        return self._current


def record_window_verdict(
    recorder: WindowRecorder, tenant: str, verdict: str
) -> None:
    recorder.pending.append((VERDICT, tenant, verdict))


def record_window_served(
    recorder: WindowRecorder,
    tenant: str,
    rung_label: str,
    degraded: bool,
    raw_fallback: bool,
    bytes_in: int,
    bytes_out: int,
) -> None:
    recorder.pending.append(
        (SERVED, tenant, rung_label, degraded, raw_fallback, bytes_in, bytes_out)
    )


def record_window_completion(
    recorder: WindowRecorder,
    tenant: str,
    latency_seconds: float,
    wait_seconds: float,
    on_time: bool,
    bytes_in: int,
) -> None:
    recorder.pending.append(
        (COMPLETION, tenant, latency_seconds, wait_seconds, on_time, bytes_in)
    )


def fold_window_records(registry: MetricsRegistry, records: Sequence[tuple]) -> None:
    """Write ``records`` into ``registry`` as the ``WINDOW_*`` schema, each
    label set once.

    Counts and byte sums are integers, exact in a float however they are
    grouped; a histogram series takes its values in arrival order through
    ``observe_many``, so its float ``sum`` adds up in the order one
    ``observe`` per record would have used. A family or label set no
    record touched is not created.
    """
    verdicts: Dict[Tuple[str, str], int] = {}
    served: Dict[Tuple[str, str], int] = {}
    degraded: Dict[str, int] = {}
    raw: Dict[str, int] = {}
    volumes: Dict[str, int] = {}
    outcomes: Dict[str, int] = {}
    latencies: Dict[str, List[float]] = {}
    latency_all: List[float] = []
    wait_all: List[float] = []
    for record in records:
        kind = record[0]
        if kind == COMPLETION:
            __, tenant, latency, wait, on_time, size = record
            latency_all.append(latency)
            wait_all.append(wait)
            series = latencies.get(tenant)
            if series is None:
                series = latencies[tenant] = []
            series.append(latency)
            if on_time:
                outcomes["on_time"] = outcomes.get("on_time", 0) + 1
                volumes["on_time"] = volumes.get("on_time", 0) + size
            else:
                outcomes["tardy"] = outcomes.get("tardy", 0) + 1
        elif kind == SERVED:
            __, tenant, rung, was_degraded, raw_fallback, size, size_out = record
            key = (tenant, rung)
            served[key] = served.get(key, 0) + 1
            volumes["in_served"] = volumes.get("in_served", 0) + size
            volumes["out"] = volumes.get("out", 0) + size_out
            if was_degraded:
                degraded[rung] = degraded.get(rung, 0) + 1
                volumes["in_degraded"] = volumes.get("in_degraded", 0) + size
                volumes["out_degraded"] = volumes.get("out_degraded", 0) + size_out
            if raw_fallback:
                raw[tenant] = raw.get(tenant, 0) + 1
        else:
            key = record[1:]
            verdicts[key] = verdicts.get(key, 0) + 1

    if verdicts:
        counter = registry.counter(WINDOW_VERDICTS)
        for (tenant, verdict), count in verdicts.items():
            counter.inc(count, tenant=tenant, verdict=verdict)
    if served:
        counter = registry.counter(WINDOW_SERVED)
        for (tenant, rung), count in served.items():
            counter.inc(count, tenant=tenant, rung=rung)
    if volumes:
        counter = registry.counter(WINDOW_BYTES)
        for kind, size in volumes.items():
            counter.inc(size, kind=kind)
    if degraded:
        counter = registry.counter(WINDOW_DEGRADED)
        for rung, count in degraded.items():
            counter.inc(count, rung=rung)
    if raw:
        counter = registry.counter(WINDOW_RAW)
        for tenant, count in raw.items():
            counter.inc(count, tenant=tenant)
    if latency_all:
        histogram = registry.histogram(WINDOW_LATENCY)
        histogram.observe_many(latency_all, tenant=ALL_TENANTS)
        for tenant, values in latencies.items():
            histogram.observe_many(values, tenant=tenant)
        registry.histogram(WINDOW_WAIT).observe_many(wait_all, tenant=ALL_TENANTS)
        counter = registry.counter(WINDOW_OUTCOMES)
        for result, count in outcomes.items():
            counter.inc(count, result=result)


def window_latency_p99(
    registry: MetricsRegistry, tenant: str
) -> Optional[float]:
    """Latency p99 (seconds) of a window registry, or None if the tenant
    completed nothing in it; works on merged registries too."""
    hist = registry.get(WINDOW_LATENCY)
    if not isinstance(hist, Histogram) or not hist.count(tenant=tenant):
        return None
    return hist.percentile(99, tenant=tenant)


def window_tenants(registry: MetricsRegistry) -> List[str]:
    """Every tenant with any footprint in the window, sorted.

    Discovery must span *all* tenant-labeled series, not just arrival
    verdicts: on a multi-shard fleet a request's completion can land
    windows after its admission, and a tenant whose replicas finished
    work admitted earlier would otherwise vanish from the drilldown for
    that window (its latency silently folded into ``_all``). Counters
    expose ``samples()``; histograms only ``label_keys()``.
    """
    names = set()
    for counter_name in (WINDOW_VERDICTS, WINDOW_SERVED, WINDOW_RAW):
        metric = registry.get(counter_name)
        if metric is not None:
            for key, __ in metric.samples():
                tenant = dict(key).get("tenant")
                if tenant and tenant != ALL_TENANTS:
                    names.add(tenant)
    hist = registry.get(WINDOW_LATENCY)
    if isinstance(hist, Histogram):
        for key in hist.label_keys():
            tenant = dict(key).get("tenant")
            if tenant and tenant != ALL_TENANTS:
                names.add(tenant)
    return sorted(names)


def label_totals(registry: MetricsRegistry, name: str, label: str) -> Dict[str, int]:
    """Counter ``name`` of a window registry summed by the values of one of
    its labels (in sample order: label order for a one-label counter);
    empty when nothing recorded it."""
    totals: Dict[str, int] = {}
    metric = registry.get(name)
    if metric is not None:
        for key, value in metric.samples():
            by = dict(key)[label]
            totals[by] = totals.get(by, 0) + int(value)
    return totals


def traffic_counts(registry: MetricsRegistry) -> Dict[str, int]:
    """The count columns of a window registry, under the run report's field
    names (plus ``offered``: the arrival verdicts). The one reader of the
    traffic ledger: run totals, shard rows and timeline rows all come from
    here, from one window, one node's run or the whole fleet's. Every
    count is an integer counter sum, so it is exact on a merge."""
    verdicts = label_totals(registry, WINDOW_VERDICTS, "verdict")
    outcomes = label_totals(registry, WINDOW_OUTCOMES, "result")
    volumes = label_totals(registry, WINDOW_BYTES, "kind")
    admitted = verdicts.get("admit", 0)
    throttled = verdicts.get("throttle", 0)
    shed = verdicts.get("shed", 0)
    return {
        "offered": admitted + throttled + shed,
        "admitted": admitted,
        "throttled": throttled,
        "shed": shed,
        "expired": verdicts.get("expired", 0),
        "served": int(metric_total(registry, WINDOW_SERVED)),
        "degraded": int(metric_total(registry, WINDOW_DEGRADED)),
        "raw_fallbacks": int(metric_total(registry, WINDOW_RAW)),
        "on_time": outcomes.get("on_time", 0),
        "tardy": outcomes.get("tardy", 0),
        "bytes_in_served": volumes.get("in_served", 0),
        "bytes_out": volumes.get("out", 0),
        "bytes_in_degraded": volumes.get("in_degraded", 0),
        "bytes_out_degraded": volumes.get("out_degraded", 0),
        "bytes_on_time": volumes.get("on_time", 0),
    }


def ratio_lost(counts: Mapping[str, int], rung0_ratio: float) -> Optional[float]:
    """Fraction of compression ratio given up by the ladder, in [0, 1], from
    :func:`traffic_counts` byte volumes; None when undefined (nothing
    compressed, or no positive rung-0 reference).

    Compares the achieved ratio against a counterfactual where every
    degraded request had been served at rung 0 (its output estimated from
    the sample-measured rung-0 ratio). Payload-mix noise cancels because
    the non-degraded bytes appear on both sides.
    """
    bytes_out = counts["bytes_out"]
    if bytes_out <= 0 or rung0_ratio <= 0:
        return None
    in_degraded = counts["bytes_in_degraded"]
    if in_degraded <= 0:
        return 0.0
    in_served = counts["bytes_in_served"]
    counterfactual_out = (
        bytes_out - counts["bytes_out_degraded"] + in_degraded / rung0_ratio
    )
    if counterfactual_out <= 0:
        return None
    achieved = in_served / bytes_out
    reference = in_served / counterfactual_out
    if reference <= 0:
        return None
    return max(0.0, 1.0 - achieved / reference)


# -- the serving SLO set -----------------------------------------------------


@dataclass(frozen=True)
class ServingSLOConfig:
    """Objectives for the four serving SLOs (the tunable surface)."""

    #: budget fraction of offered requests that may go unserved
    #: (throttled + front-door shed + deadline-expired): a 99.8%
    #: served objective, tight enough that sustained deadline drops
    #: page while the baseline scenario stays silent
    shed_budget: float = 0.002
    #: p99 end-to-end latency bound, seconds
    latency_p99_seconds: float = 0.25
    #: on-time goodput floor, bytes per second of window span
    goodput_floor_bytes_per_second: float = 250_000.0
    #: budget fraction of compression ratio the ladder may give up
    ratio_lost_budget: float = 0.15


class GoodputSLO(SLO):
    """On-time bytes per second of window span must stay above a floor.

    Needs the window *widths* (a rate over time), so it reads the window
    sequence directly instead of going through a merged-registry
    callable. Windows with no completions at all carry no signal (the
    run has not started, or nothing was in flight).
    """

    def __init__(self, name: str, floor_bytes_per_second: float) -> None:
        super().__init__(name, "on-time goodput stays above the floor")
        if floor_bytes_per_second <= 0:
            raise ValueError("goodput floor must be positive")
        self.floor = floor_bytes_per_second

    def _burn(
        self, merged: MetricsRegistry, windows: Sequence[WindowSnapshot]
    ) -> Optional[float]:
        span = sum(w.width for w in windows)
        if span <= 0:
            return None
        completions = metric_total(merged, WINDOW_OUTCOMES)
        if completions <= 0:
            return None
        goodput = metric_total(merged, WINDOW_BYTES, kind="on_time") / span
        if goodput <= 0:
            return float("inf")
        return self.floor / goodput


def shed_rate_slo(budget: float) -> EventRateSLO:
    """The shed-rate objective over the window verdict schema.

    Shared by the single-node timeline and the cluster's fleet rollup —
    on merged shard windows the counters simply add, because every
    verdict is recorded on exactly one shard.
    """
    return EventRateSLO(
        "shed_rate",
        bad=lambda reg: (
            metric_total(reg, WINDOW_VERDICTS, verdict="throttle")
            + metric_total(reg, WINDOW_VERDICTS, verdict="shed")
            + metric_total(reg, WINDOW_VERDICTS, verdict="expired")
        ),
        total=lambda reg: (
            metric_total(reg, WINDOW_VERDICTS, verdict="admit")
            + metric_total(reg, WINDOW_VERDICTS, verdict="throttle")
            + metric_total(reg, WINDOW_VERDICTS, verdict="shed")
        ),
        budget=budget,
        description="offered requests refused or dropped on deadline",
    )


def latency_p99_slo(bound_seconds: float) -> BoundSLO:
    """The p99 latency bound over the window latency histogram; merged
    shard histograms fold losslessly, so the fleet reading is exact."""
    return BoundSLO(
        "latency_p99",
        value=lambda reg: window_latency_p99(reg, ALL_TENANTS),
        bound=bound_seconds,
        mode="upper",
        description="end-to-end p99 stays under the bound",
    )


def serving_slos(
    config: ServingSLOConfig, rung0_ratio: float
) -> List[SLO]:
    """The serving plane's SLO set, in display order."""
    return [
        shed_rate_slo(config.shed_budget),
        latency_p99_slo(config.latency_p99_seconds),
        GoodputSLO("goodput", config.goodput_floor_bytes_per_second),
        BoundSLO(
            "ratio_lost",
            value=lambda reg, r0=rung0_ratio: ratio_lost(traffic_counts(reg), r0),
            bound=config.ratio_lost_budget,
            mode="upper",
            description="compression ratio given up by the ladder",
        ),
    ]


# -- the timeline ------------------------------------------------------------


@dataclass(frozen=True)
class TenantWindow:
    """One tenant's slice of one window (the drilldown row)."""

    offered: int
    served: int
    p99_ms: Optional[float]


@dataclass(frozen=True)
class TimelineWindow:
    """One closed window distilled to plain data, plus the alert edges
    its evaluation produced."""

    index: int
    start: float
    end: float
    offered: int
    admitted: int
    throttled: int
    shed: int
    expired: int
    served: int
    degraded: int
    raw_fallbacks: int
    on_time: int
    tardy: int
    p99_ms: Optional[float]
    wait_p99_ms: Optional[float]
    goodput_bytes_per_second: float
    ratio_lost: Optional[float]
    #: alert state per SLO after this window's evaluation
    states: Dict[str, str]
    #: headline burn per SLO (the page rule's long-window burn)
    burns: Dict[str, Optional[float]]
    tenants: Dict[str, TenantWindow]
    transitions: Tuple[AlertTransition, ...]


def build_window_row(
    snapshot: WindowSnapshot,
    evaluator: SLOEvaluator,
    rung0_ratio: float,
    transitions: Sequence[AlertTransition],
) -> TimelineWindow:
    reg = snapshot.registry
    counts = traffic_counts(reg)
    # Tenant rows must partition the window's offered/served totals even
    # when the window is a merge of shard registries (one tenant's
    # traffic spanning replicas): each verdict/serve/completion is
    # recorded on exactly one shard, so the merged counters add without
    # double counting, and discovery spans every tenant-labeled series
    # (a completion-only tenant still gets its row).
    tenants: Dict[str, TenantWindow] = {}
    for tenant in window_tenants(reg):
        p99 = window_latency_p99(reg, tenant)
        tenants[tenant] = TenantWindow(
            # arrival verdicts only: "expired" is a second verdict for an
            # already-admitted request, so including it would double-count
            # (tenant rows must partition the window's offered total)
            offered=sum(
                int(metric_total(reg, WINDOW_VERDICTS, tenant=tenant, verdict=v))
                for v in ("admit", "throttle", "shed")
            ),
            served=int(metric_total(reg, WINDOW_SERVED, tenant=tenant)),
            p99_ms=None if p99 is None else p99 * 1e3,
        )
    p99 = window_latency_p99(reg, ALL_TENANTS)
    wait = reg.get(WINDOW_WAIT)
    wait_p99 = (
        wait.percentile(99, tenant=ALL_TENANTS)
        if isinstance(wait, Histogram) and wait.count(tenant=ALL_TENANTS)
        else None
    )
    return TimelineWindow(
        index=snapshot.index,
        start=snapshot.start,
        end=snapshot.end,
        offered=counts["offered"],
        admitted=counts["admitted"],
        throttled=counts["throttled"],
        shed=counts["shed"],
        expired=counts["expired"],
        served=counts["served"],
        degraded=counts["degraded"],
        raw_fallbacks=counts["raw_fallbacks"],
        on_time=counts["on_time"],
        tardy=counts["tardy"],
        p99_ms=None if p99 is None else p99 * 1e3,
        wait_p99_ms=None if wait_p99 is None else wait_p99 * 1e3,
        goodput_bytes_per_second=(
            counts["bytes_on_time"] / snapshot.width if snapshot.width > 0 else 0.0
        ),
        ratio_lost=ratio_lost(counts, rung0_ratio),
        states=evaluator.states(),
        burns={slo.name: evaluator.burn(slo.name) for slo in evaluator.slos},
        tenants=tenants,
        transitions=tuple(transitions),
    )


@dataclass
class ServingTimeline:
    """The full window-by-window record of one simulated run."""

    scenario: str
    seed: int
    scale: float
    window_seconds: float
    config: ServingSLOConfig
    windows: List[TimelineWindow]
    alerts: AlertSummary


# -- renderers ---------------------------------------------------------------


def timeline_jsonl(timeline: ServingTimeline) -> str:
    """The flight-recorder form: run header, one line per window,
    one line per alert transition, end summary. Deterministic
    (sorted keys, fixed-precision floats) so seeded runs diff clean;
    ``repro obs watch`` replays this format."""
    lines: List[str] = [
        json_line(
            {
                "kind": "run",
                "plane": "serving",
                "scenario": timeline.scenario,
                "seed": timeline.seed,
                "scale": timeline.scale,
                "window_seconds": timeline.window_seconds,
                "slos": asdict(timeline.config),
            }
        )
    ]
    for w in timeline.windows:
        # the window row is the dataclass itself (tenant rows included);
        # its alert edges follow as rows of their own
        row = asdict(w)
        del row["transitions"]
        lines.append(json_line({"kind": "window", **row}))
        for t in w.transitions:
            lines.append(
                json_line(
                    {
                        "kind": "alert",
                        "at": t.at,
                        "slo": t.slo,
                        "from": t.from_state,
                        "to": t.to_state,
                        "reason": t.reason,
                    }
                )
            )
    alerts = timeline.alerts
    lines.append(
        json_line(
            {
                "kind": "end",
                "windows": len(timeline.windows),
                "final_states": alerts.final_states,
                "page_seconds": alerts.page_seconds,
                "warn_seconds": alerts.warn_seconds,
                "total_page_seconds": alerts.total_page_seconds(),
                "worst_state": alerts.worst_state(),
            }
        )
    )
    return "\n".join(lines) + "\n"


def fmt_opt(value: Optional[float], spec: str, width: int) -> str:
    if value is None:
        return "-".rjust(width)
    return format(value, spec).rjust(width)


def traffic_lines(report, shed_rate: str) -> List[str]:
    """The scorecard block both simulators print for a
    :class:`repro.sim.TrafficReport`: counter table, latency and queue-wait
    percentiles of its registry, goodput. ``shed_rate`` is the plane's own
    definition, already formatted."""
    lines = [
        f"{'arrivals':>10s} {'admitted':>9s} {'throttled':>9s} {'shed':>6s} "
        f"{'expired':>8s} {'served':>7s} {'on-time':>8s} {'tardy':>6s}",
        f"{report.arrivals:10d} {report.admitted:9d} {report.throttled:9d} "
        f"{report.shed:6d} {report.expired:8d} {report.served:7d} "
        f"{report.on_time:8d} {report.tardy:6d}",
        "",
    ]
    for name, metric in (("latency", WINDOW_LATENCY), ("queue wait", WINDOW_WAIT)):
        hist = report.registry.get(metric)
        if isinstance(hist, Histogram) and hist.count(tenant=ALL_TENANTS):
            lines.append(
                f"{name:10s} p50={hist.p50(tenant=ALL_TENANTS) * 1e3:9.3f} ms  "
                f"p90={hist.p90(tenant=ALL_TENANTS) * 1e3:9.3f} ms  "
                f"p99={hist.p99(tenant=ALL_TENANTS) * 1e3:9.3f} ms"
            )
    lines.append(
        f"goodput    {report.goodput_bytes_per_second / 1e6:.3f} MB/s on-time "
        f"({report.bytes_on_time} bytes in {report.makespan_seconds:.3f} s), "
        f"shed rate {shed_rate}"
    )
    return lines


def format_timeline(timeline: ServingTimeline) -> str:
    """Human-readable timeline; byte-identical for identical runs."""
    lines = [
        f"slo timeline -- scenario '{timeline.scenario}', "
        f"seed {timeline.seed}, scale {timeline.scale:g}, "
        f"window {timeline.window_seconds:g} s",
        "",
        f"{'win':>4s} {'span (s)':>15s} {'offer':>6s} {'shed':>5s} "
        f"{'exp':>4s} {'served':>6s} {'degr':>5s} {'p99 ms':>8s} "
        f"{'MB/s':>7s} {'burn':>7s}  states",
    ]
    for w in timeline.windows:
        span = f"[{w.start:6.2f},{w.end:6.2f})"
        worst_burn = max(
            (b for b in w.burns.values() if b is not None), default=None
        )
        states = format_states(
            {name: state for name, state in w.states.items() if state != OK}
        )
        lines.append(
            f"{w.index:4d} {span:>15s} {w.offered:6d} {w.shed:5d} "
            f"{w.expired:4d} {w.served:6d} {w.degraded:5d} "
            f"{fmt_opt(w.p99_ms, '8.2f', 8)} "
            f"{w.goodput_bytes_per_second / 1e6:7.3f} "
            f"{fmt_opt(worst_burn, '7.2f', 7)}  {states}"
        )
        for t in w.transitions:
            lines.append("     " + format_transition(t, f"{t.at:.3f} s"))
    alerts = timeline.alerts
    lines.append("")
    lines.append(f"final states: {format_states(alerts.final_states)}")
    lines.append(
        f"page seconds: {alerts.total_page_seconds():.3f} "
        f"(warn {alerts.total_warn_seconds():.3f}); "
        f"worst state {alerts.worst_state()}"
    )
    return "\n".join(lines)

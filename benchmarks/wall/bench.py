#!/usr/bin/env python3
"""The repo's wall-clock benchmark: five workloads, timed from outside.

    python3 benchmarks/wall/bench.py [--workload W] [--seed S] [--reps R]
        [--trace [0|1]] [--out DIR] [--smoke]

One *run* of a workload is R repetitions at the same seed, each in a fresh
interpreter (``bench.py --one W``, a child that prints one JSON line), so
nothing one repetition memoised can make the next look fast and
``peak_rss_mb`` is per workload. A repetition sets up (imports, input
generation, dictionary training, warm-up call: timed apart as ``setup_s``)
and then goes once over the workload's fixed-size, seed-derived inputs,
timing every operation separately. The repetitions time the same
operations on the same bytes, so each operation's time is taken as the
fastest of its R readings and every timing metric is computed from those;
``setup_s`` and ``peak_rss_mb`` are the median of the R repetitions.
``results.json`` keeps the per-repetition median, min, max and n beside
each value.

``--trace`` adds two more repetitions with ``trace.py``'s wrappers
installed. The first supplies the per-layer rows and the span file, both
supply ``trace.overhead_pct``; end-to-end numbers always come from the
untraced repetitions.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics without
``--trace``, the per-layer rows with it. Any failed output check makes the
exit code non-zero.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import spec  # noqa: E402  (sibling, needs HERE on the path)

#: a child that takes longer than this is stuck; the driver allows 180 s
CHILD_TIMEOUT_S = 170


def load_trace():
    """``trace.py`` by path: a plain ``import trace`` may hand back the
    standard library's module of that name."""
    name = "wall_trace"
    if name not in sys.modules:
        module_spec = importlib.util.spec_from_file_location(name, HERE / "trace.py")
        module = importlib.util.module_from_spec(module_spec)
        sys.modules[name] = module
        module_spec.loader.exec_module(module)
    return sys.modules[name]


def pyloop_mops(iterations: int = 200_000) -> float:
    """A fixed pure-Python spin, in million loop iterations per second:
    tells a slow machine apart from slow code."""
    value = 0
    start = perf_counter()
    for i in range(iterations):
        value = (value + i * i) & 0xFFFF
    return iterations / (perf_counter() - start) / 1e6


# ---------------------------------------------------------------------------
# the child: one repetition of one workload
# ---------------------------------------------------------------------------


def run_repetition(args) -> dict:
    started = perf_counter()
    import workloads  # numpy + repro: the bulk of set-up

    workload = workloads.WORKLOADS[args.one]
    spin = [pyloop_mops()]
    inputs = workload.prepare(args.seed, args.smoke)
    workloads.warm_up()
    setup_s = perf_counter() - started

    checks = workloads.Checks()
    rows: Dict[str, float] = {}
    if args.traced:
        result = _traced_run(workload, inputs, checks, rows, args)
    else:
        result = workload.run(inputs, checks)
    spin.append(pyloop_mops())
    rows["ref.pyloop_mops"] = statistics.median(spin)
    return {
        "inputs_sha256": inputs["inputs_sha256"],
        "outputs_sha256": result.outputs_sha256,
        "samples": result.samples,
        "facts": result.facts,
        "rows": rows,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_rate": checks.failed / max(1, checks.attempted),
        },
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
    }


def _traced_run(workload, inputs, checks, rows: Dict[str, float], args):
    """``workload.run`` under the tracer; fills ``rows`` with the layer rows
    and, with ``--probes``, the workload's extra rows (measured untraced)."""
    trace = load_trace()
    tracer = trace.Tracer()
    tracer.install()
    try:
        result = tracer.call_root(
            f"bench.{workload.name}", workload.run, inputs, checks
        )
    finally:
        tracer.restore()
    spans = tracer.spans
    summary = trace.layer_summary(spans)
    root_s = spans[0][trace.END] - spans[0][trace.START]
    for layer in spec.LAYERS:
        rows[f"{layer}.self_s"] = summary[layer]["self_s"]
        rows[f"{layer}.calls"] = summary[layer]["calls"]
    rows["trace.unattributed_share"] = summary[trace.ROOT_LAYER]["self_s"] / root_s
    if workload.trace_rows is not None:
        rows.update(
            workload.trace_rows(
                summary, functools.partial(trace.span_seconds, spans), result.facts
            )
        )
    if args.probes and workload.probes is not None:
        __, own_rows = workload.summarise(result.samples, result.facts)
        rows.update(workload.probes(inputs, own_rows))
    if args.trace_file:
        tracer.write(args.trace_file)
    return result


# ---------------------------------------------------------------------------
# the parent: spawn repetitions, aggregate, report
# ---------------------------------------------------------------------------


def spawn(name: str, args, traced: bool = False, rows: bool = False) -> dict:
    """One repetition in a fresh interpreter. ``rows``: the traced
    repetition that also runs the probes and writes the span file."""
    command = [
        sys.executable, str(HERE / "bench.py"), "--one", name,
        "--seed", str(args.seed),
    ]
    if args.smoke:
        command.append("--smoke")
    if traced:
        command.append("--traced")
    if rows:
        command.append("--probes")
        if args.out:
            command += ["--trace-file", os.path.join(args.out, f"trace-{name}.jsonl")]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"{name}: repetition exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


#: how the R timings of one operation become one. Interference on a shared
#: machine only ever adds time, so the fastest of the R is the estimate
#: least touched by it (see README, "Run protocol")
across_repetitions = min


def combine(reps: List[dict]) -> List[float]:
    """Every repetition timed the same operations on the same bytes in the
    same order: one time per operation out of the repetitions' readings."""
    return [
        across_repetitions(column) for column in zip(*(r["samples"] for r in reps))
    ]


def stat(values: List[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def metrics_of(workload, samples: List[float], facts: dict) -> tuple:
    """``(end-to-end metrics, per-layer rows)`` of one list of timings."""
    metrics, rows = workload.summarise(samples, facts)
    metrics["work_s"] = sum(samples)
    return metrics, rows


def run_workload(name: str, args) -> dict:
    """All repetitions of one workload, folded into one report."""
    import workloads

    workload = workloads.WORKLOADS[name]
    reps = [spawn(name, args) for __ in range(args.reps)]
    # never more traced repetitions than untraced: trace.overhead_pct
    # compares equally many of each
    traced = [
        spawn(name, args, traced=True, rows=k == 0)
        for k in range(min(spec.TRACED_REPS, args.reps) if args.trace else 0)
    ]

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    messages = [m for r in reps for m in r["messages"]]
    # same seed, fresh interpreter: inputs, outputs (compressed streams,
    # scorecard text, storage files) and clock-free facts must be identical
    # every time, and tracing must not change them either
    for other in reps[1:] + traced:
        for key in ("inputs_sha256", "outputs_sha256", "facts"):
            attempted += 1
            if other[key] != reps[0][key]:
                failed += 1
                messages.append(f"{name}: {key} differs between repetitions")
    for other in traced:
        attempted += other["attempted"]
        failed += other["failed"]
        messages += other["messages"]

    # Each operation's time is combined across the repetitions first and
    # the metrics are computed from the combined timings: a slow spell of
    # the machine that hits one repetition's operations 300..400 and
    # another's 900..1000 then moves nothing, where it would move both
    # repetitions' totals.
    facts = reps[0]["facts"]
    values, rows = metrics_of(workload, combine(reps), facts)
    per_rep = [
        dict(metrics_of(workload, r["samples"], facts)[0], **r["metrics"])
        for r in reps
    ]
    for metric in reps[0]["metrics"]:  # setup_s, peak_rss_mb, error_rate
        values[metric] = statistics.median(own[metric] for own in per_rep)
    metrics = {
        metric: dict(stat([own[metric] for own in per_rep]), value=value)
        for metric, value in values.items()
    }
    layers: Dict[str, float] = {}
    if traced:
        layers.update(rows)
        layers.update(traced[0]["rows"])
        # like for like: the same operations with the wrappers installed
        # and without, combined over equally many repetitions on each side
        layers["trace.overhead_pct"] = (
            sum(combine(traced)) / sum(combine(reps[: len(traced)])) - 1.0
        ) * 100.0
        layers["ref.pyloop_mops"] = statistics.median(
            r["rows"]["ref.pyloop_mops"] for r in reps + traced
        )
    return {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "inputs_sha256": reps[0]["inputs_sha256"],
        "outputs_sha256": reps[0]["outputs_sha256"],
        "metrics": metrics,
        "layers": layers,
    }


def end_to_end_names(workload: str) -> List[str]:
    return [m.name for m in spec.END_TO_END + spec.LISTED if m.on(workload)]


def print_report(report: dict) -> None:
    name = report["workload"]
    print(f"== {name}")
    for metric in end_to_end_names(name):
        s = report["metrics"][metric]
        print(
            f"{name:16s} {metric:26s} {s['value']:14.6g} {spec.BY_NAME[metric].unit:6s}"
            f" repetitions: median {s['median']:.6g} [{s['min']:.6g} .. {s['max']:.6g}]"
            f" n={s['n']}"
        )
    for row in sorted(report["layers"]):
        if not report["layers"][row]:
            continue  # a layer this workload never reaches
        print(
            f"{name:16s} {row:44s} {report['layers'][row]:14.6g}"
            f" {spec.BY_NAME[row].unit}"
        )
    print(f"{name:16s} outputs_sha256 {report['outputs_sha256']}")
    for message in report["messages"]:
        print(f"{name:16s} FAILED CHECK: {message}")


def driver_metrics(report: dict, trace: bool) -> dict:
    """The metrics of the result line: every gated end-to-end metric, or
    with ``--trace`` every per-layer row (zero where this workload has no
    such row)."""
    if not trace:
        return {
            m.name: {"value": report["metrics"][m.name]["value"], "unit": m.unit}
            for m in spec.END_TO_END
        }
    values = {name: s["value"] for name, s in report["metrics"].items()}
    values.update(report["layers"])
    return {
        m.name: {"value": values.get(m.name, 0.0), "unit": m.unit}
        for m in spec.PER_LAYER
    }


def write_results(out_dir: str, reports: List[dict], args) -> None:
    from repro.trajectory import TrajectoryEntry, save_trajectory

    results = {
        "schema": 1,
        "seed": args.seed,
        "reps": args.reps,
        "smoke": args.smoke,
        "workloads": {},
    }
    entries = {}
    for report in reports:
        name = report["workload"]
        table = {}
        for metric in end_to_end_names(name):
            definition = spec.BY_NAME[metric]
            table[metric] = dict(
                report["metrics"][metric],
                unit=definition.unit,
                better=definition.better,
                bound=definition.bound,
            )
            entries[f"wall.{name}.{metric}"] = TrajectoryEntry(
                name=f"wall.{name}.{metric}",
                value=report["metrics"][metric]["value"],
                unit=definition.unit,
                higher_is_better=definition.better == "higher",
                tolerance=definition.bound,
            )
        results["workloads"][name] = {
            "attempted": report["attempted"],
            "failed": report["failed"],
            "inputs_sha256": report["inputs_sha256"],
            "outputs_sha256": report["outputs_sha256"],
            "metrics": table,
            "layers": report["layers"],
        }
    with open(os.path.join(out_dir, "results.json"), "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    save_trajectory(os.path.join(out_dir, "trajectory.json"), entries)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted because the driver passes it, and unused:"
                        " the inputs are fixed-size, so a run measures about"
                        f" {spec.RUN_SECONDS} s on the 2-core sandbox whatever this says")
    parser.add_argument("--reps", type=int, default=spec.REPS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced repetitions")
    parser.add_argument("--out", default=None,
                        help="directory for results.json, trajectory.json, trace-*.jsonl")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the plumbing, not the speed")
    parser.add_argument("--one", choices=spec.WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probes", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench.py: no program to measure at {SRC}", file=sys.stderr)
        return 2
    if args.one:
        print(json.dumps(run_repetition(args)))
        return 0
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    reports = []
    for name in names:
        reports.append(run_workload(name, args))
        print_report(reports[-1])
    if args.out:
        write_results(args.out, reports, args)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {}
    for report in reports:
        prefix = "" if args.workload else f"{report['workload']}."
        for metric, value in driver_metrics(report, bool(args.trace)).items():
            metrics[prefix + metric] = value
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

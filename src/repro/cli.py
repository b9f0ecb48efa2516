"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``compress`` / ``decompress`` -- file round-trips through any codec.
- ``inspect`` -- zstd frame metadata without decoding.
- ``bench`` -- quick ratio/speed table for a file across codecs and levels
  (an lzbench-style view using the calibrated machine model).
- ``train-dict`` -- train a dictionary from sample files.
- ``optimize`` -- run CompOpt over sample files and print the ranking.
- ``fleet-report`` -- run the fleet profiling simulation and print the
  Section-III characterization.
- ``obs`` -- run an instrumented workload with telemetry enabled and emit
  the metrics snapshot (table, Prometheus text, or JSON lines).
- ``chaos`` -- run the service stack under a named fault plan and print
  the deterministic survival scorecard.
- ``serve-sim`` -- run the admission-controlled serving gateway through
  the discrete-event simulator and print the latency/goodput scorecard.
- ``slo`` -- run the serving simulator with the rolling-window SLO plane
  attached and print the window-by-window burn-rate/alert timeline
  (table or replayable JSONL); ``--max-page-seconds`` turns it into a
  CI gate.
- ``cluster-sim`` -- run the sharded multi-node cluster simulator
  (consistent-hash routing, per-shard gateways, autoscaler, rebalancer)
  and print the per-shard + fleet scorecard; byte-identical per seed.
- ``bench-diff`` -- compare two benchmark-trajectory files and fail on
  regressions beyond tolerance.
- ``lint`` -- run the AST-based determinism/contract sanitizer
  (``repro.lint``) over the tree and fail on any error finding.
- ``graph`` -- OpenZL-style graph compression: train per-category
  transform DAGs, compress/decompress self-describing graph streams,
  and describe graph shapes (``repro.graphs``).

One contract for all of them. A command is an ``add_arguments(parser)``
/ ``run(args) -> int`` pair, listed once in :func:`commands`. Stdout
carries the report and nothing else (:func:`emit_report`), so two seeded
runs diff clean; confirmations, summaries and verdicts go to stderr.
Exit status is 0, 1 when a gate or the data said no (:func:`fail`), or
2 when the invocation itself was wrong -- including an input path that
cannot be read or an output path that cannot be written
(:class:`UsageError`, raised by the shared file helpers below).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Tuple

from repro.codecs import available_codecs, get_codec, train_dictionary
from repro.perfmodel import DEFAULT_MACHINE

# -- the output contract ------------------------------------------------------


class UsageError(Exception):
    """A path the invocation named cannot be read or written; :func:`main`
    reports it through :func:`fail` with exit status 2."""


def _write_file(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as error:
        raise UsageError(f"cannot write {path}: {error.strerror}") from error


def emit_report(text: str, output: Optional[str] = None) -> None:
    """Send a text report to ``output`` (a path; None or ``-`` = stdout),
    ending in exactly one newline. A file write is confirmed on stderr."""
    if text and not text.endswith("\n"):
        text += "\n"
    if output and output != "-":
        _write_file(output, text.encode("utf-8"))
        print(f"wrote {output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def fail(message: str, code: int = 1) -> int:
    """Report a failure on stderr (stdout stays a pure, diffable report)
    and return the exit status: 1 for a failed gate or bad data, 2 for a
    bad invocation."""
    print(f"FAIL: {message}", file=sys.stderr)
    return code


def read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as error:
        raise UsageError(f"cannot read {path}: {error.strerror}") from error


def write_output(path: str, data: bytes, summary: str) -> None:
    """Binary output to ``path`` (``-`` = stdout); the one-line summary is
    the report, printed only when stdout is not carrying the data."""
    if path == "-":
        sys.stdout.buffer.write(data)
        return
    _write_file(path, data)
    emit_report(summary)


# -- codec file commands --------------------------------------------------------


def _compress_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input")
    parser.add_argument("output")
    parser.add_argument("--codec", default="zstd", choices=available_codecs())
    parser.add_argument("--level", type=int, default=None)
    parser.add_argument("--dictionary", default=None)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for chunked compression (0 = all cores)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="bytes per independent frame (implies chunked mode; default 128 KiB)",
    )


def _compress(args: argparse.Namespace) -> int:
    codec = get_codec(args.codec)
    dictionary = read_input(args.dictionary) if args.dictionary else None
    data = read_input(args.input)
    if args.jobs != 1 or args.chunk_size is not None:
        from repro.parallel import DEFAULT_CHUNK_SIZE, compress_chunked

        chunk_size = (
            args.chunk_size if args.chunk_size is not None else DEFAULT_CHUNK_SIZE
        )
        result = compress_chunked(
            codec,
            data,
            args.level,
            dictionary=dictionary,
            chunk_size=chunk_size,
            jobs=args.jobs,
        )
        detail = f", {result.chunk_count} chunks x {chunk_size} B"
    else:
        result = codec.compress(data, args.level, dictionary=dictionary)
        detail = ""
    speed = DEFAULT_MACHINE.compress_speed(codec.name, result.counters)
    write_output(
        args.output,
        result.data,
        f"{len(data)} -> {len(result.data)} bytes "
        f"(ratio {result.ratio:.2f}, modeled {speed / 1e6:.0f} MB/s{detail})",
    )
    return 0


def _decompress_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input")
    parser.add_argument("output")
    parser.add_argument("--codec", default="zstd", choices=available_codecs())
    parser.add_argument("--dictionary", default=None)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for multi-frame decode (0 = all cores)",
    )


def _decompress(args: argparse.Namespace) -> int:
    codec = get_codec(args.codec)
    dictionary = read_input(args.dictionary) if args.dictionary else None
    payload = read_input(args.input)
    if args.jobs != 1:
        from repro.parallel import decompress_chunked

        result = decompress_chunked(
            codec, payload, dictionary=dictionary, jobs=args.jobs
        )
    else:
        result = codec.decompress(payload, dictionary=dictionary)
    write_output(
        args.output, result.data, f"{len(payload)} -> {len(result.data)} bytes"
    )
    return 0


def _inspect_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input")


def _inspect(args: argparse.Namespace) -> int:
    from repro.codecs.zstd import inspect_frame

    info = inspect_frame(read_input(args.input))
    ratio = info.content_size / info.compressed_size if info.compressed_size else 0
    dict_id = "none" if info.dict_id is None else f"{info.dict_id:#010x}"
    emit_report(
        f"content size:    {info.content_size}\n"
        f"compressed size: {info.compressed_size}\n"
        f"ratio:           {ratio:.3f}\n"
        f"window log:      {info.window_log}\n"
        f"checksum:        {'yes' if info.has_checksum else 'no'}\n"
        f"dictionary id:   {dict_id}\n"
        f"blocks:          {info.block_count} ({', '.join(info.block_types)})"
    )
    return 0


def _bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input")
    parser.add_argument("--codecs", nargs="+", default=["zstd", "lz4", "zlib"])
    parser.add_argument("--levels", nargs="+", type=int, default=None)


def _bench(args: argparse.Namespace) -> int:
    from repro.analysis import format_table

    data = read_input(args.input)
    rows = []
    for codec_name in args.codecs:
        codec = get_codec(codec_name)
        levels = args.levels or [codec.min_level, codec.default_level, codec.max_level]
        for level in levels:
            if not codec.min_level <= level <= codec.max_level:
                continue
            result = codec.compress(data, level)
            decoded = codec.decompress(result.data)
            rows.append(
                [
                    codec_name,
                    level,
                    f"{result.ratio:.3f}",
                    f"{DEFAULT_MACHINE.compress_speed(codec_name, result.counters) / 1e6:.0f}",
                    f"{DEFAULT_MACHINE.decompress_speed(codec_name, decoded.counters) / 1e6:.0f}",
                ]
            )
    emit_report(
        format_table(
            ["codec", "level", "ratio", "comp MB/s", "decomp MB/s"],
            rows,
            title=f"bench: {args.input} ({len(data)} bytes, modeled speeds)",
        )
    )
    return 0


def _train_dict_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("output")
    parser.add_argument("samples", nargs="+")
    parser.add_argument("--max-size", type=int, default=16384)


def _train_dict(args: argparse.Namespace) -> int:
    samples = [read_input(path) for path in args.samples]
    dictionary = train_dictionary(samples, max_size=args.max_size)
    write_output(
        args.output,
        dictionary.content,
        f"trained {len(dictionary)} bytes from {len(samples)} samples "
        f"(dict id {dictionary.dict_id:#010x})",
    )
    return 0


# -- CompOpt and the fleet -------------------------------------------------------


def _optimize_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("samples", nargs="+")
    parser.add_argument("--codecs", nargs="+", default=["zstd", "lz4", "zlib"])
    parser.add_argument("--levels", nargs="+", type=int, default=None)
    parser.add_argument("--block-sizes", nargs="+", type=int, default=None,
                        help="block sizes in KiB")
    parser.add_argument("--beta", type=float, default=1e-6)
    parser.add_argument("--retention-days", type=float, default=30.0)
    parser.add_argument("--min-speed", type=float, default=None,
                        help="minimum compression speed, MB/s")
    parser.add_argument("--max-decode-ms", type=float, default=None,
                        help="maximum per-block decode latency, ms")
    parser.add_argument("--no-storage", action="store_true")
    parser.add_argument("--no-network", action="store_true")
    parser.add_argument("--top", type=int, default=10)


def _optimize(args: argparse.Namespace) -> int:
    from repro.core import (
        CompEngine,
        CompOpt,
        CostModel,
        CostParameters,
        MaxBlockDecodeLatency,
        MinCompressionSpeed,
    )
    from repro.core.config import config_grid

    samples = [read_input(path) for path in args.samples]
    engine = CompEngine(samples)
    params = CostParameters.from_price_book(
        beta=args.beta,
        retention_days=args.retention_days,
        storage_weight=0.0 if args.no_storage else 1.0,
        network_weight=0.0 if args.no_network else 1.0,
    )
    requirements = []
    if args.min_speed:
        requirements.append(MinCompressionSpeed(args.min_speed * 1e6))
    if args.max_decode_ms:
        requirements.append(MaxBlockDecodeLatency(args.max_decode_ms / 1e3))
    block_sizes = [b * 1024 for b in args.block_sizes] if args.block_sizes else [None]
    grid = config_grid(args.codecs, levels=args.levels, block_sizes=block_sizes)
    optimizer = CompOpt(engine, CostModel(params), requirements)
    result = optimizer.optimize(grid)
    lines = [f"{'config':14s} {'ratio':>6s} {'MB/s':>6s} {'cost':>12s}  feasible"]
    for ranked in result.ranked[: args.top]:
        lines.append(
            f"{ranked.config.label():14s} "
            f"{ranked.metrics.ratio:6.2f} "
            f"{ranked.metrics.compression_speed / 1e6:6.0f} "
            f"${ranked.total_cost:11,.2f}  "
            f"{'yes' if ranked.feasible else 'no'}"
        )
    best = result.best
    if best is not None:
        lines.append(f"\nbest: {best.config.label()}")
    emit_report("\n".join(lines))
    if best is None:
        return fail("no configuration satisfies the requirements")
    return 0


def _fleet_report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--days", type=int, default=30)
    parser.add_argument("--samples-per-day", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=30)
    parser.add_argument(
        "--measure", action="store_true",
        help="also run the measured (service, codec, level) sweep",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the measured sweep (0 = all cores)",
    )
    parser.add_argument(
        "--measure-bytes", type=int, default=4096,
        help="payload bytes per measured sweep cell",
    )


def _fleet_report(args: argparse.Namespace) -> int:
    from repro.fleet import SamplingProfiler, characterize

    profiler = SamplingProfiler(samples_per_day=args.samples_per_day, seed=args.seed)
    result = characterize(profiler.run(days=args.days))
    lines = [
        f"compression share of fleet cycles: "
        f"{result.compression_share * 100:.2f}%"
    ]
    for algorithm, share in sorted(
        result.algorithm_shares.items(), key=lambda kv: -kv[1]
    ):
        lines.append(f"  {algorithm:5s}: {share * 100:.2f}%")
    lines.append("by category:")
    for category, share in sorted(
        result.category_zstd_share.items(), key=lambda kv: -kv[1]
    ):
        if category == "Infra":
            continue
        lines.append(f"  {category:17s} {share * 100:5.2f}%")
    lines.append(f"levels 1-4 cycle share: {result.low_level_share(4) * 100:.1f}%")
    if args.measure:
        from repro.fleet import format_fleet_sweep, run_fleet_sweep

        sweep = run_fleet_sweep(jobs=args.jobs, payload_bytes=args.measure_bytes)
        lines.append(f"\nmeasured sweep ({len(sweep)} cells, jobs={args.jobs}):")
        lines.append(format_fleet_sweep(sweep))
    emit_report("\n".join(lines))
    return 0


# -- gated simulators --------------------------------------------------------------


def _chaos_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.faults.plan import NAMED_PLANS

    parser.add_argument(
        "--plan", default="standard", choices=sorted(NAMED_PLANS)
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--ops", type=float, default=1.0,
        help="scale factor on each scenario's operation count",
    )
    parser.add_argument(
        "--min-recovered", type=int, default=0,
        help="exit 1 unless at least this many operations recovered",
    )
    parser.add_argument(
        "--max-failed", type=int, default=10 ** 9,
        help="exit 1 if more than this many operations failed",
    )


def _chaos(args: argparse.Namespace) -> int:
    from repro.chaos import format_scorecard, run_chaos

    report = run_chaos(plan=args.plan, seed=args.seed, ops=args.ops)
    emit_report(format_scorecard(report))
    if report.failed > args.max_failed:
        return fail(
            f"{report.failed} operations failed "
            f"(--max-failed {args.max_failed})"
        )
    if report.recovered < args.min_recovered:
        return fail(
            f"only {report.recovered} operations recovered "
            f"(--min-recovered {args.min_recovered})"
        )
    return 0


def _serving_run_arguments(parser: argparse.ArgumentParser, seed: int) -> None:
    """What ``serve-sim`` and ``slo`` both pass to ``run_simulation``."""
    from repro.serving.simulate import SCENARIOS

    parser.add_argument(
        "--scenario", default="overload", choices=sorted(SCENARIOS)
    )
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor on the scenario duration (0.5 = quick smoke)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the gateway executor (0 = all cores)",
    )
    parser.add_argument(
        "--no-degradation", action="store_true",
        help="disable the degradation ladder (serve rung 0 or shed)",
    )


def _serve_sim_arguments(parser: argparse.ArgumentParser) -> None:
    _serving_run_arguments(parser, seed=7)
    parser.add_argument(
        "--max-shed-rate", type=float, default=1.0,
        help="exit 1 if the shed fraction exceeds this (0..1)",
    )
    parser.add_argument(
        "--max-p99-ms", type=float, default=None,
        help="exit 1 if latency p99 exceeds this many milliseconds",
    )
    parser.add_argument(
        "--min-served", type=int, default=0,
        help="exit 1 unless at least this many requests were served",
    )
    parser.add_argument(
        "--graphs", default="",
        help="comma-separated trained graph names to add as ladder "
        "candidates (e.g. record,float); empty keeps the flat ladder",
    )


def _serve_sim(args: argparse.Namespace) -> int:
    from repro.serving import format_scorecard, run_simulation
    from repro.serving.slos import ALL_TENANTS, window_latency_p99

    report = run_simulation(
        scenario=args.scenario,
        seed=args.seed,
        scale=args.scale,
        degradation=False if args.no_degradation else None,
        jobs=args.jobs,
        graphs=args.graphs.split(",") if args.graphs else None,
    )
    emit_report(format_scorecard(report))
    if report.shed_rate() > args.max_shed_rate:
        return fail(
            f"shed rate {report.shed_rate() * 100:.1f}% exceeds "
            f"--max-shed-rate {args.max_shed_rate * 100:.1f}%"
        )
    p99 = window_latency_p99(report.registry, ALL_TENANTS)
    if args.max_p99_ms is not None and p99 is not None:
        p99_ms = p99 * 1e3
        if p99_ms > args.max_p99_ms:
            return fail(
                f"latency p99 {p99_ms:.1f} ms exceeds "
                f"--max-p99-ms {args.max_p99_ms:.1f}"
            )
    if report.served < args.min_served:
        return fail(
            f"only {report.served} requests served "
            f"(--min-served {args.min_served})"
        )
    return 0


def _slo_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.serving.simulate import DEFAULT_WINDOW_SECONDS

    _serving_run_arguments(parser, seed=42)
    parser.add_argument(
        "--window-seconds", type=float, default=DEFAULT_WINDOW_SECONDS,
        help="rolling-window width in simulated seconds",
    )
    parser.add_argument(
        "--shed-budget", type=float, default=None,
        help="error budget for the shed-rate SLO (fraction of offered)",
    )
    parser.add_argument(
        "--max-p99-ms", type=float, default=None,
        help="latency-p99 SLO bound in milliseconds",
    )
    parser.add_argument(
        "--format", default="table", choices=["table", "jsonl"],
        help="jsonl is the replayable flight-recorder form",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the timeline to a file instead of stdout",
    )
    parser.add_argument(
        "--max-page-seconds", type=float, default=None,
        help="exit 1 if total PAGE-state seconds exceed this (CI gate)",
    )


def _page_seconds_gate(page_seconds: float, bound: Optional[float]) -> int:
    if bound is not None and page_seconds > bound:
        return fail(
            f"{page_seconds:.3f} page-seconds exceeds "
            f"--max-page-seconds {bound:.3f}"
        )
    return 0


def _slo(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.serving import (
        ServingSLOConfig,
        format_timeline,
        run_simulation,
        timeline_jsonl,
    )

    config = ServingSLOConfig()
    if args.shed_budget is not None:
        config = replace(config, shed_budget=args.shed_budget)
    if args.max_p99_ms is not None:
        config = replace(config, latency_p99_seconds=args.max_p99_ms / 1e3)
    report = run_simulation(
        scenario=args.scenario,
        seed=args.seed,
        scale=args.scale,
        degradation=False if args.no_degradation else None,
        jobs=args.jobs,
        window_seconds=args.window_seconds,
        slo_config=config,
    )
    timeline = report.timeline
    render = timeline_jsonl if args.format == "jsonl" else format_timeline
    emit_report(render(timeline), args.output)
    return _page_seconds_gate(
        timeline.alerts.total_page_seconds(), args.max_page_seconds
    )


def _cluster_sim_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.cluster.simulate import CLUSTER_SCENARIOS

    parser.add_argument(
        "--scenario", default="fleet-surge", choices=sorted(CLUSTER_SCENARIOS)
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor on the scenario duration (30 = ~1e5 requests)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes shared by all shards (outputs are "
        "identical at every value)",
    )
    parser.add_argument(
        "--no-autoscale", action="store_true",
        help="freeze the node count at the scenario's initial fleet",
    )
    parser.add_argument(
        "--no-rebalance", action="store_true",
        help="disable hot-tenant migration",
    )
    parser.add_argument(
        "--max-shed-rate", type=float, default=1.0,
        help="exit 1 if the fleet shed fraction exceeds this (0..1)",
    )
    parser.add_argument(
        "--min-served", type=int, default=0,
        help="exit 1 unless at least this many requests were served",
    )
    parser.add_argument(
        "--max-page-seconds", type=float, default=None,
        help="exit 1 if total PAGE-state seconds exceed this (CI gate)",
    )


def _cluster_sim(args: argparse.Namespace) -> int:
    from repro.cluster import format_cluster_scorecard, run_cluster_simulation

    report = run_cluster_simulation(
        scenario=args.scenario,
        seed=args.seed,
        scale=args.scale,
        jobs=args.jobs,
        autoscale=False if args.no_autoscale else None,
        rebalance=False if args.no_rebalance else None,
    )
    emit_report(format_cluster_scorecard(report))
    if report.shed_rate() > args.max_shed_rate:
        return fail(
            f"shed rate {report.shed_rate() * 100:.2f}% exceeds "
            f"--max-shed-rate {args.max_shed_rate * 100:.2f}%"
        )
    if report.served < args.min_served:
        return fail(
            f"only {report.served} requests served "
            f"(--min-served {args.min_served})"
        )
    return _page_seconds_gate(
        report.alerts.total_page_seconds(), args.max_page_seconds
    )


def _bench_diff_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.trajectory import DEFAULT_MAX_REGRESSION

    parser.add_argument("baseline", help="committed trajectory JSON")
    parser.add_argument("current", help="freshly generated trajectory")
    parser.add_argument(
        "--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
        help="default allowed relative regression (entries may override)",
    )


def _bench_diff(args: argparse.Namespace) -> int:
    from repro.trajectory import (
        compare_trajectories,
        format_diff,
        has_regressions,
        load_trajectory,
    )

    try:
        baseline = load_trajectory(args.baseline)
        current = load_trajectory(args.current)
    except (OSError, ValueError, KeyError) as error:
        return fail(f"bench-diff: {error}", code=2)
    rows = compare_trajectories(
        baseline, current, max_regression=args.max_regression
    )
    emit_report(format_diff(rows))
    if has_regressions(rows):
        return fail("bench-diff: metrics regressed or went missing")
    return 0


# -- the command table -----------------------------------------------------------

Command = Tuple[
    str, str, Callable[[argparse.ArgumentParser], None],
    Callable[[argparse.Namespace], int],
]


def commands() -> Tuple[Command, ...]:
    """Every subcommand: ``(name, help, add_arguments, run)``. The three
    planes with their own CLI module contribute that module's pair."""
    from repro.graphs import cli as graph
    from repro.lint import cli as lint
    from repro.obs import cli as obs

    return (
        ("compress", "compress a file", _compress_arguments, _compress),
        ("decompress", "decompress a file", _decompress_arguments, _decompress),
        ("inspect", "show zstd frame metadata", _inspect_arguments, _inspect),
        ("bench", "ratio/speed table for a file", _bench_arguments, _bench),
        ("train-dict", "train a dictionary from samples",
         _train_dict_arguments, _train_dict),
        ("optimize", "run CompOpt over sample files",
         _optimize_arguments, _optimize),
        ("fleet-report", "fleet characterization",
         _fleet_report_arguments, _fleet_report),
        ("obs", "run a telemetry-instrumented workload, print snapshot",
         obs.add_arguments, obs.run),
        ("chaos", "run the service stack under a fault plan",
         _chaos_arguments, _chaos),
        ("serve-sim", "simulate the serving gateway under a load scenario",
         _serve_sim_arguments, _serve_sim),
        ("slo", "serving simulation with the rolling-window SLO timeline",
         _slo_arguments, _slo),
        ("cluster-sim",
         "simulate the sharded multi-node cluster with autoscaling",
         _cluster_sim_arguments, _cluster_sim),
        ("bench-diff", "compare two trajectory files, fail on perf regression",
         _bench_diff_arguments, _bench_diff),
        ("lint", "AST-based determinism/contract sanitizer over the tree",
         lint.add_arguments, lint.run),
        ("graph", "graph compression: train/compress/decompress/describe",
         graph.add_arguments, graph.run),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Datacenter compression characterization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, run in commands():
        command = sub.add_parser(name, help=help_text)
        add_arguments(command)
        command.set_defaults(func=run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as error:
        return fail(str(error), code=2)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that's a clean exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())

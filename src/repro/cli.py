"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``compress`` / ``decompress`` -- file round-trips through any codec.
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
  (``repro.lint``) over the tree and gate on the baseline ratchet.
- ``graph`` -- OpenZL-style graph compression: train per-category
  transform DAGs, compress/decompress self-describing graph streams,
  and describe graph shapes (``repro.graphs``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.codecs import available_codecs, get_codec, train_dictionary
from repro.perfmodel import DEFAULT_MACHINE


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _write(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        return
    with open(path, "wb") as handle:
        handle.write(data)


def _cmd_compress(args: argparse.Namespace) -> int:
    codec = get_codec(args.codec)
    dictionary = _read(args.dictionary) if args.dictionary else None
    data = _read(args.input)
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
    _write(args.output, result.data)
    if args.output != "-":
        speed = DEFAULT_MACHINE.compress_speed(codec.name, result.counters)
        print(
            f"{len(data)} -> {len(result.data)} bytes "
            f"(ratio {result.ratio:.2f}, modeled {speed / 1e6:.0f} MB/s{detail})"
        )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    codec = get_codec(args.codec)
    dictionary = _read(args.dictionary) if args.dictionary else None
    payload = _read(args.input)
    if args.jobs != 1:
        from repro.parallel import decompress_chunked

        result = decompress_chunked(
            codec, payload, dictionary=dictionary, jobs=args.jobs
        )
    else:
        result = codec.decompress(payload, dictionary=dictionary)
    _write(args.output, result.data)
    if args.output != "-":
        print(f"{len(payload)} -> {len(result.data)} bytes")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.codecs.zstd import inspect_frame

    payload = _read(args.input)
    info = inspect_frame(payload)
    print(f"content size:    {info.content_size}")
    print(f"compressed size: {info.compressed_size}")
    ratio = info.content_size / info.compressed_size if info.compressed_size else 0
    print(f"ratio:           {ratio:.3f}")
    print(f"window log:      {info.window_log}")
    print(f"checksum:        {'yes' if info.has_checksum else 'no'}")
    print(
        f"dictionary id:   "
        f"{'none' if info.dict_id is None else f'{info.dict_id:#010x}'}"
    )
    print(f"blocks:          {info.block_count} ({', '.join(info.block_types)})")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis import format_table

    data = _read(args.input)
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
    print(
        format_table(
            ["codec", "level", "ratio", "comp MB/s", "decomp MB/s"],
            rows,
            title=f"bench: {args.input} ({len(data)} bytes, modeled speeds)",
        )
    )
    return 0


def _cmd_train_dict(args: argparse.Namespace) -> int:
    samples = [_read(path) for path in args.samples]
    dictionary = train_dictionary(samples, max_size=args.max_size)
    _write(args.output, dictionary.content)
    print(
        f"trained {len(dictionary)} bytes from {len(samples)} samples "
        f"(dict id {dictionary.dict_id:#010x})"
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.core import (
        CompEngine,
        CompOpt,
        CostModel,
        CostParameters,
        MaxBlockDecodeLatency,
        MinCompressionSpeed,
    )
    from repro.core.config import config_grid

    samples = [_read(path) for path in args.samples]
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
    print(f"{'config':14s} {'ratio':>6s} {'MB/s':>6s} {'cost':>12s}  feasible")
    for ranked in result.ranked[: args.top]:
        print(
            f"{ranked.config.label():14s} "
            f"{ranked.metrics.ratio:6.2f} "
            f"{ranked.metrics.compression_speed / 1e6:6.0f} "
            f"${ranked.total_cost:11,.2f}  "
            f"{'yes' if ranked.feasible else 'no'}"
        )
    best = result.best
    if best is None:
        print("no configuration satisfies the requirements")
        return 1
    print(f"\nbest: {best.config.label()}")
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    from repro.fleet import SamplingProfiler, characterize

    profiler = SamplingProfiler(samples_per_day=args.samples_per_day, seed=args.seed)
    result = characterize(profiler.run(days=args.days))
    print(
        f"compression share of fleet cycles: "
        f"{result.compression_share * 100:.2f}%"
    )
    for algorithm, share in sorted(
        result.algorithm_shares.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {algorithm:5s}: {share * 100:.2f}%")
    print("by category:")
    for category, share in sorted(
        result.category_zstd_share.items(), key=lambda kv: -kv[1]
    ):
        if category == "Infra":
            continue
        print(f"  {category:17s} {share * 100:5.2f}%")
    print(f"levels 1-4 cycle share: {result.low_level_share(4) * 100:.1f}%")
    if args.measure:
        from repro.fleet import format_fleet_sweep, run_fleet_sweep

        sweep = run_fleet_sweep(jobs=args.jobs, payload_bytes=args.measure_bytes)
        print(f"\nmeasured sweep ({len(sweep)} cells, jobs={args.jobs}):")
        print(format_fleet_sweep(sweep))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.cli import run_obs_command

    return run_obs_command(args)


def _gate_failed(message: str) -> int:
    """Report a failed gate; returns the exit status. The verdict goes
    to stderr so stdout stays a pure, diffable scorecard or timeline for
    the determinism checks."""
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import format_scorecard, run_chaos

    report = run_chaos(plan=args.plan, seed=args.seed, ops=args.ops)
    print(format_scorecard(report))
    if report.failed > args.max_failed:
        return _gate_failed(
            f"{report.failed} operations failed "
            f"(--max-failed {args.max_failed})"
        )
    if report.recovered < args.min_recovered:
        return _gate_failed(
            f"only {report.recovered} operations recovered "
            f"(--min-recovered {args.min_recovered})"
        )
    return 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.serving import format_scorecard, run_simulation

    report = run_simulation(
        scenario=args.scenario,
        seed=args.seed,
        scale=args.scale,
        degradation=False if args.no_degradation else None,
        jobs=args.jobs,
        graphs=args.graphs.split(",") if args.graphs else None,
    )
    print(format_scorecard(report))
    if report.shed_rate() > args.max_shed_rate:
        return _gate_failed(
            f"shed rate {report.shed_rate() * 100:.1f}% exceeds "
            f"--max-shed-rate {args.max_shed_rate * 100:.1f}%"
        )
    if args.max_p99_ms is not None and report.latency.count(source="all"):
        p99_ms = report.latency.p99(source="all") * 1e3
        if p99_ms > args.max_p99_ms:
            return _gate_failed(
                f"latency p99 {p99_ms:.1f} ms exceeds "
                f"--max-p99-ms {args.max_p99_ms:.1f}"
            )
    if report.served < args.min_served:
        return _gate_failed(
            f"only {report.served} requests served "
            f"(--min-served {args.min_served})"
        )
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
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
    assert timeline is not None
    if args.format == "jsonl":
        text = timeline_jsonl(timeline)
    else:
        text = format_timeline(timeline)
    if args.output and args.output != "-":
        with open(args.output, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.format} timeline to {args.output}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    if args.max_page_seconds is not None:
        page_seconds = timeline.total_page_seconds()
        if page_seconds > args.max_page_seconds:
            return _gate_failed(
                f"{page_seconds:.3f} page-seconds exceeds "
                f"--max-page-seconds {args.max_page_seconds:.3f}"
            )
    return 0


def _cmd_cluster_sim(args: argparse.Namespace) -> int:
    from repro.cluster import format_cluster_scorecard, run_cluster_simulation

    report = run_cluster_simulation(
        scenario=args.scenario,
        seed=args.seed,
        scale=args.scale,
        jobs=args.jobs,
        autoscale=False if args.no_autoscale else None,
        rebalance=False if args.no_rebalance else None,
    )
    print(format_cluster_scorecard(report))
    if report.shed_rate() > args.max_shed_rate:
        return _gate_failed(
            f"shed rate {report.shed_rate() * 100:.2f}% exceeds "
            f"--max-shed-rate {args.max_shed_rate * 100:.2f}%"
        )
    if report.served < args.min_served:
        return _gate_failed(
            f"only {report.served} requests served "
            f"(--min-served {args.min_served})"
        )
    if args.max_page_seconds is not None:
        page_seconds = report.total_page_seconds()
        if page_seconds > args.max_page_seconds:
            return _gate_failed(
                f"{page_seconds:.3f} page-seconds exceeds "
                f"--max-page-seconds {args.max_page_seconds:.3f}"
            )
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
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
        print(f"bench-diff: {error}", file=sys.stderr)
        return 2
    rows = compare_trajectories(
        baseline, current, max_regression=args.max_regression
    )
    print(format_diff(rows))
    return 1 if has_regressions(rows) else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint_command

    return run_lint_command(args)


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.graphs.cli import run_graph_command

    return run_graph_command(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Datacenter compression characterization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compress = sub.add_parser("compress", help="compress a file")
    compress.add_argument("input")
    compress.add_argument("output")
    compress.add_argument("--codec", default="zstd", choices=available_codecs())
    compress.add_argument("--level", type=int, default=None)
    compress.add_argument("--dictionary", default=None)
    compress.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for chunked compression (0 = all cores)",
    )
    compress.add_argument(
        "--chunk-size", type=int, default=None,
        help="bytes per independent frame (implies chunked mode; default 128 KiB)",
    )
    compress.set_defaults(func=_cmd_compress)

    decompress = sub.add_parser("decompress", help="decompress a file")
    decompress.add_argument("input")
    decompress.add_argument("output")
    decompress.add_argument("--codec", default="zstd", choices=available_codecs())
    decompress.add_argument("--dictionary", default=None)
    decompress.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for multi-frame decode (0 = all cores)",
    )
    decompress.set_defaults(func=_cmd_decompress)

    inspect = sub.add_parser("inspect", help="show zstd frame metadata")
    inspect.add_argument("input")
    inspect.set_defaults(func=_cmd_inspect)

    bench = sub.add_parser("bench", help="ratio/speed table for a file")
    bench.add_argument("input")
    bench.add_argument("--codecs", nargs="+", default=["zstd", "lz4", "zlib"])
    bench.add_argument("--levels", nargs="+", type=int, default=None)
    bench.set_defaults(func=_cmd_bench)

    train = sub.add_parser("train-dict", help="train a dictionary from samples")
    train.add_argument("output")
    train.add_argument("samples", nargs="+")
    train.add_argument("--max-size", type=int, default=16384)
    train.set_defaults(func=_cmd_train_dict)

    optimize = sub.add_parser("optimize", help="run CompOpt over sample files")
    optimize.add_argument("samples", nargs="+")
    optimize.add_argument("--codecs", nargs="+", default=["zstd", "lz4", "zlib"])
    optimize.add_argument("--levels", nargs="+", type=int, default=None)
    optimize.add_argument("--block-sizes", nargs="+", type=int, default=None,
                          help="block sizes in KiB")
    optimize.add_argument("--beta", type=float, default=1e-6)
    optimize.add_argument("--retention-days", type=float, default=30.0)
    optimize.add_argument("--min-speed", type=float, default=None,
                          help="minimum compression speed, MB/s")
    optimize.add_argument("--max-decode-ms", type=float, default=None,
                          help="maximum per-block decode latency, ms")
    optimize.add_argument("--no-storage", action="store_true")
    optimize.add_argument("--no-network", action="store_true")
    optimize.add_argument("--top", type=int, default=10)
    optimize.set_defaults(func=_cmd_optimize)

    fleet = sub.add_parser("fleet-report", help="fleet characterization")
    fleet.add_argument("--days", type=int, default=30)
    fleet.add_argument("--samples-per-day", type=int, default=200_000)
    fleet.add_argument("--seed", type=int, default=30)
    fleet.add_argument(
        "--measure", action="store_true",
        help="also run the measured (service, codec, level) sweep",
    )
    fleet.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the measured sweep (0 = all cores)",
    )
    fleet.add_argument(
        "--measure-bytes", type=int, default=4096,
        help="payload bytes per measured sweep cell",
    )
    fleet.set_defaults(func=_cmd_fleet_report)

    obs = sub.add_parser(
        "obs", help="run a telemetry-instrumented workload, print snapshot"
    )
    obs.add_argument(
        "--workload", default="all",
        choices=["kvstore", "rpc", "cache", "all"],
    )
    obs.add_argument(
        "--format", default="table",
        choices=["table", "prometheus", "jsonl"],
    )
    obs.add_argument("--output", default=None,
                     help="write the snapshot to a file instead of stdout")
    obs.set_defaults(func=_cmd_obs)
    obs_sub = obs.add_subparsers(dest="obs_command", required=False)
    watch = obs_sub.add_parser(
        "watch",
        help="replay a recorded SLO timeline (JSONL) as an ANSI view",
    )
    watch.add_argument(
        "input",
        help="timeline JSONL from `repro slo --format jsonl` ('-' = stdin)",
    )
    watch.add_argument(
        "--no-color", action="store_true",
        help="plain text (no ANSI escapes)",
    )
    watch.set_defaults(func=_cmd_obs)

    chaos = sub.add_parser(
        "chaos", help="run the service stack under a fault plan"
    )
    from repro.faults.plan import NAMED_PLANS

    chaos.add_argument(
        "--plan", default="standard", choices=sorted(NAMED_PLANS)
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--ops", type=float, default=1.0,
        help="scale factor on each scenario's operation count",
    )
    chaos.add_argument(
        "--min-recovered", type=int, default=0,
        help="exit 1 unless at least this many operations recovered",
    )
    chaos.add_argument(
        "--max-failed", type=int, default=10 ** 9,
        help="exit 1 if more than this many operations failed",
    )
    chaos.set_defaults(func=_cmd_chaos)

    serve = sub.add_parser(
        "serve-sim", help="simulate the serving gateway under a load scenario"
    )
    from repro.serving.simulate import SCENARIOS

    serve.add_argument(
        "--scenario", default="overload", choices=sorted(SCENARIOS)
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor on the scenario duration (0.5 = quick smoke)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the gateway executor (0 = all cores)",
    )
    serve.add_argument(
        "--no-degradation", action="store_true",
        help="disable the degradation ladder (serve rung 0 or shed)",
    )
    serve.add_argument(
        "--max-shed-rate", type=float, default=1.0,
        help="exit 1 if the shed fraction exceeds this (0..1)",
    )
    serve.add_argument(
        "--max-p99-ms", type=float, default=None,
        help="exit 1 if latency p99 exceeds this many milliseconds",
    )
    serve.add_argument(
        "--min-served", type=int, default=0,
        help="exit 1 unless at least this many requests were served",
    )
    serve.add_argument(
        "--graphs", default="",
        help="comma-separated trained graph names to add as ladder "
        "candidates (e.g. record,float); empty keeps the flat ladder",
    )
    serve.set_defaults(func=_cmd_serve_sim)

    slo = sub.add_parser(
        "slo",
        help="serving simulation with the rolling-window SLO timeline",
    )
    from repro.serving.simulate import DEFAULT_WINDOW_SECONDS

    slo.add_argument(
        "--scenario", default="overload", choices=sorted(SCENARIOS)
    )
    slo.add_argument("--seed", type=int, default=42)
    slo.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor on the scenario duration (0.5 = quick smoke)",
    )
    slo.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the gateway executor (0 = all cores)",
    )
    slo.add_argument(
        "--no-degradation", action="store_true",
        help="disable the degradation ladder (serve rung 0 or shed)",
    )
    slo.add_argument(
        "--window-seconds", type=float, default=DEFAULT_WINDOW_SECONDS,
        help="rolling-window width in simulated seconds",
    )
    slo.add_argument(
        "--shed-budget", type=float, default=None,
        help="error budget for the shed-rate SLO (fraction of offered)",
    )
    slo.add_argument(
        "--max-p99-ms", type=float, default=None,
        help="latency-p99 SLO bound in milliseconds",
    )
    slo.add_argument(
        "--format", default="table", choices=["table", "jsonl"],
        help="jsonl is the replayable flight-recorder form",
    )
    slo.add_argument(
        "--output", default=None,
        help="write the timeline to a file instead of stdout",
    )
    slo.add_argument(
        "--max-page-seconds", type=float, default=None,
        help="exit 1 if total PAGE-state seconds exceed this (CI gate)",
    )
    slo.set_defaults(func=_cmd_slo)

    cluster = sub.add_parser(
        "cluster-sim",
        help="simulate the sharded multi-node cluster with autoscaling",
    )
    from repro.cluster.simulate import CLUSTER_SCENARIOS

    cluster.add_argument(
        "--scenario", default="fleet-surge", choices=sorted(CLUSTER_SCENARIOS)
    )
    cluster.add_argument("--seed", type=int, default=7)
    cluster.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor on the scenario duration (30 = ~1e5 requests)",
    )
    cluster.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes shared by all shards (1 = in-process "
        "with the fleet codec cache; outputs are identical either way)",
    )
    cluster.add_argument(
        "--no-autoscale", action="store_true",
        help="freeze the node count at the scenario's initial fleet",
    )
    cluster.add_argument(
        "--no-rebalance", action="store_true",
        help="disable hot-tenant migration",
    )
    cluster.add_argument(
        "--max-shed-rate", type=float, default=1.0,
        help="exit 1 if the fleet shed fraction exceeds this (0..1)",
    )
    cluster.add_argument(
        "--min-served", type=int, default=0,
        help="exit 1 unless at least this many requests were served",
    )
    cluster.add_argument(
        "--max-page-seconds", type=float, default=None,
        help="exit 1 if total PAGE-state seconds exceed this (CI gate)",
    )
    cluster.set_defaults(func=_cmd_cluster_sim)

    bench_diff = sub.add_parser(
        "bench-diff",
        help="compare two trajectory files, fail on perf regression",
    )
    from repro.trajectory import DEFAULT_MAX_REGRESSION

    bench_diff.add_argument("baseline", help="committed trajectory JSON")
    bench_diff.add_argument("current", help="freshly generated trajectory")
    bench_diff.add_argument(
        "--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
        help="default allowed relative regression (entries may override)",
    )
    bench_diff.set_defaults(func=_cmd_bench_diff)

    lint = sub.add_parser(
        "lint",
        help="AST-based determinism/contract sanitizer over the tree",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    graph = sub.add_parser(
        "graph",
        help="graph compression: train/compress/decompress/describe",
    )
    from repro.graphs.cli import add_graph_arguments

    add_graph_arguments(graph)
    graph.set_defaults(func=_cmd_graph)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that's a clean exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())

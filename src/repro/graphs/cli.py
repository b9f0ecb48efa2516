"""The ``repro graph`` subcommand: train / compress / decompress / describe.

Follows the CLI contract in :mod:`repro.cli`. All output is a pure
function of the arguments — training is seeded, compression is
deterministic, and nothing prints wall-clock times — so two identical
invocations are byte-identical, which CI checks.
"""

from __future__ import annotations

import argparse

from repro.cli import emit_report, fail, read_input, write_output
from repro.codecs.base import CodecError
from repro.graphs.model import (
    GraphSpecError,
    canonical_bytes,
    format_spec,
    parse_spec,
    spec_label,
)
from repro.graphs.registry import available_graphs, get_graph, register_graph


def _load_spec_arg(args: argparse.Namespace):
    """Resolve --graph NAME / --spec FILE into (name, spec)."""
    if args.graph is not None:
        return args.graph, get_graph(args.graph)
    name = "adhoc"
    spec = parse_spec(read_input(args.spec))
    register_graph(name, spec)
    return name, spec


def _train(args: argparse.Namespace) -> int:
    from repro.graphs.samples import category_samples
    from repro.graphs.search import train_graph

    samples = category_samples(
        args.category, count=args.count, size=args.size, seed=args.seed
    )
    result = train_graph(
        args.category,
        samples,
        generations=args.generations,
        population=args.population,
        seed=args.seed,
    )
    graph = result.ranked_graph.metrics
    flat = result.ranked_flat.metrics
    spec_json = canonical_bytes(result.spec).decode("ascii")
    emit_report(
        f"category:   {args.category}\n"
        f"samples:    {args.count} x {args.size} bytes (seed {args.seed})\n"
        f"winner:     {spec_label(result.spec)}\n"
        f"graph:      ratio={graph.ratio:.3f}\n"
        f"best flat:  {result.ranked_flat.config.label()} ratio={flat.ratio:.3f}\n"
        f"beats flat: {'yes' if result.beats_flat else 'no'}\n"
        f"{spec_json}"
    )
    if args.out:
        emit_report(spec_json, args.out)
    return 0


def _compress(args: argparse.Namespace) -> int:
    from repro.graphs.codec import GraphCompressor

    name, spec = _load_spec_arg(args)
    data = read_input(args.input)
    result = GraphCompressor(name, spec).compress(data, 1)
    write_output(
        args.output,
        result.data,
        f"{args.input}: {len(data)} -> {len(result.data)} bytes "
        f"(ratio {result.ratio:.3f}) via graph:{name}",
    )
    return 0


def _decompress(args: argparse.Namespace) -> int:
    from repro.graphs.codec import GraphCompressor, decode_graph_header

    payload = read_input(args.input)
    spec = decode_graph_header(payload)
    result = GraphCompressor("stream", spec).decompress(
        payload, max_output_bytes=args.max_output_bytes
    )
    write_output(
        args.output,
        result.data,
        f"{args.input}: {len(payload)} -> {len(result.data)} bytes "
        f"via {spec_label(spec)}",
    )
    return 0


def _describe(args: argparse.Namespace) -> int:
    if not args.stream:
        emit_report(format_spec(_load_spec_arg(args)[1]))
        return 0
    from repro.graphs.stream import decode_stream

    payload = read_input(args.stream)
    spec, frames = decode_stream(payload)
    lines = [
        f"stream:  {args.stream} ({len(payload)} bytes)",
        f"graph:   {spec_label(spec)}",
        f"frames:  {len(frames)}",
    ]
    for index, (raw_len, payload_bytes) in enumerate(frames):
        lines.append(f"  frame {index}: raw={raw_len} stored={len(payload_bytes)}")
    lines.append(format_spec(spec))
    emit_report("\n".join(lines))
    return 0


def _list(args: argparse.Namespace) -> int:
    emit_report(
        "\n".join(
            f"graph:{name}  {spec_label(get_graph(name))}"
            for name in available_graphs()
        )
    )
    return 0


def _add_spec_source(group) -> None:
    group.add_argument(
        "--graph", choices=available_graphs(),
        help="a trained/registered graph name",
    )
    group.add_argument("--spec", help="path to a graph spec JSON file")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="graph_command", required=True)

    train = sub.add_parser(
        "train", help="search for a category's best graph (seeded)"
    )
    train.add_argument(
        "--category", required=True, choices=("record", "text", "float")
    )
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--generations", type=int, default=3)
    train.add_argument("--population", type=int, default=4)
    train.add_argument(
        "--count", type=int, default=2, help="number of training samples"
    )
    train.add_argument(
        "--size", type=int, default=65536, help="bytes per training sample"
    )
    train.add_argument(
        "--out", default=None, help="write the winning spec JSON here"
    )
    train.set_defaults(graph_func=_train)

    compress = sub.add_parser("compress", help="compress a file with a graph")
    compress.add_argument("input")
    compress.add_argument("output")
    _add_spec_source(compress.add_mutually_exclusive_group(required=True))
    compress.set_defaults(graph_func=_compress)

    decompress = sub.add_parser(
        "decompress", help="decompress a self-describing graph stream"
    )
    decompress.add_argument("input")
    decompress.add_argument("output")
    decompress.add_argument(
        "--max-output-bytes", type=int, default=None,
        help="bomb guard for untrusted streams",
    )
    decompress.set_defaults(graph_func=_decompress)

    describe = sub.add_parser(
        "describe", help="render a graph (by name, spec file, or stream)"
    )
    group = describe.add_mutually_exclusive_group(required=True)
    _add_spec_source(group)
    group.add_argument(
        "--stream", help="path to a compressed stream (reads its header)"
    )
    describe.set_defaults(graph_func=_describe)

    listing = sub.add_parser("list", help="list resolvable graphs")
    listing.set_defaults(graph_func=_list)


def run(args: argparse.Namespace) -> int:
    try:
        return args.graph_func(args)
    except (GraphSpecError, CodecError) as exc:
        # a spec file that does not parse, or a stream that does not decode
        return fail(f"graph {args.graph_command}: {exc}")

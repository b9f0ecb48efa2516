"""The ``repro obs`` subcommand: run a workload, emit a telemetry snapshot.

Drives one (or all) of the instrumented service substrates with telemetry
enabled, then renders the global registry in the requested format. This is
the quickest way to see the per-(algorithm, direction, level, stage)
counters and the block-decode latency histogram the paper's fleet profiler
reports (Figs. 6, 7, 13).
"""

from __future__ import annotations

import random
import sys
from typing import Callable, Dict, List

from repro.cli import emit_report, fail
from repro.obs.export import to_jsonl, to_prometheus, to_table
from repro.obs.metrics import get_registry
from repro.obs.spans import reset, span
from repro.obs.state import disable, enable, is_enabled


def _payload(rng: random.Random, size: int) -> bytes:
    """Compressible structured record bytes, lightly randomized."""
    out = bytearray()
    while len(out) < size:
        out += b"ts=%010d|service=%s|status=%s|bytes=%06d|region=use1\n" % (
            rng.randrange(10**9),
            rng.choice([b"ads", b"cache", b"kvstore", b"warehouse"]),
            rng.choice([b"ok", b"ok", b"ok", b"retry", b"error"]),
            rng.randrange(10**6),
        )
    return bytes(out[:size])


def _kvstore_workload() -> None:
    """Writes through flush/compaction, then a hot/cold point-read mix."""
    from repro.services.kvstore.db import KVStore

    rng = random.Random(0)
    with span("workload.kvstore"):
        store = KVStore(
            compression_level=3,
            block_size=2048,
            memtable_bytes=8 << 10,
            block_cache_bytes=32 << 10,
        )
        keys = [b"user:%06d" % i for i in range(250)]
        with span("kvstore.load"):
            for key in keys:
                store.put(key, _payload(rng, rng.randrange(64, 512)))
            store.flush()
        with span("kvstore.reads"):
            hot = keys[:20]
            for _ in range(150):
                store.get(rng.choice(hot))  # mostly block-cache hits
            for _ in range(50):
                store.get(rng.choice(keys))  # colder: decode misses
            for _ in range(20):
                store.get(b"missing:%06d" % rng.randrange(10**6))


def _rpc_workload() -> None:
    """Compressed RPC messages over the modeled channel."""
    from repro.services.rpc import Channel

    rng = random.Random(1)
    with span("workload.rpc"):
        channel = Channel(level=1)
        for _ in range(30):
            channel.send(_payload(rng, rng.randrange(256, 8192)))


def _cache_workload() -> None:
    """Dictionary-compressed cache items served to a decompressing client."""
    from repro.services.cache.client import CacheClient
    from repro.services.cache.server import CacheServer

    rng = random.Random(2)
    with span("workload.cache"):
        server = CacheServer(level=3, capacity_bytes=64 << 10)
        client = CacheClient(server)
        keys = [b"item:%04d" % i for i in range(120)]
        for key in keys:
            server.set(key, "record", _payload(rng, rng.randrange(96, 1024)))
        for _ in range(200):
            client.get(rng.choice(keys))
        for _ in range(30):
            client.get(b"absent:%04d" % rng.randrange(10**4))


_RUNNERS: Dict[str, Callable[[], None]] = {
    "kvstore": _kvstore_workload,
    "rpc": _rpc_workload,
    "cache": _cache_workload,
}

_RENDERERS = {
    "table": to_table,
    "prometheus": to_prometheus,
    "jsonl": to_jsonl,
}


def add_arguments(parser) -> None:
    parser.add_argument("--workload", default="all", choices=[*_RUNNERS, "all"])
    parser.add_argument(
        "--format", default="table", choices=list(_RENDERERS)
    )
    parser.add_argument(
        "--output", default=None,
        help="write the snapshot to a file instead of stdout",
    )
    sub = parser.add_subparsers(dest="obs_command", required=False)
    watch = sub.add_parser(
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


def _watch(args) -> int:
    """``repro obs watch``: replay a recorded timeline JSONL."""
    from repro.obs.watch import WatchError, render_watch, watch_file

    color = not args.no_color
    try:
        if args.input == "-":
            text = render_watch(sys.stdin, color=color)
        else:
            text = watch_file(args.input, color=color)
    except (OSError, WatchError) as error:
        return fail(f"obs watch: {error}")
    emit_report(text)
    return 0


def run(args) -> int:
    if args.obs_command == "watch":
        return _watch(args)
    names: List[str] = (
        list(_RUNNERS) if args.workload == "all" else [args.workload]
    )
    was_enabled = is_enabled()
    reset()
    enable()
    try:
        for name in names:
            _RUNNERS[name]()
    finally:
        if not was_enabled:
            disable()
    emit_report(_RENDERERS[args.format](get_registry()), args.output)
    return 0

"""The bench-side half of the performance trajectory.

Every ``bench_*`` entry point funnels its headline numbers through
:func:`record` here, which normalizes them into the repo-root
``BENCH_trajectory.json`` (or ``$BENCH_TRAJECTORY`` when set, which is
how CI redirects fresh results away from the committed baseline).

Run directly, this module **regenerates the deterministic subset** of
the trajectory — every metric that is a pure function of seed and
payload (modeled serving latency and goodput, chunked-compression
ratios, modeled codec speed). That is what CI diffs against the
committed baseline via ``repro bench-diff``: any drift in these numbers
means the code's behavior changed, not the machine. Wall-clock metrics
(the obs overhead ratio) are appended only by their bench with an
explicit per-entry tolerance and are never part of the committed
baseline, so the gate cannot flake on machine noise.

    python benchmarks/trajectory.py [--output PATH]
"""

from __future__ import annotations

import argparse
import os
from typing import Optional

from repro.trajectory import TrajectoryEntry, record_entry

#: the committed baseline at the repo root
DEFAULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_trajectory.json",
)


def trajectory_path() -> str:
    return os.environ.get("BENCH_TRAJECTORY", DEFAULT_PATH)


def record(
    name: str,
    value: float,
    unit: str,
    higher_is_better: bool = True,
    tolerance: Optional[float] = None,
    path: Optional[str] = None,
) -> None:
    """Append/update one normalized result in the trajectory file."""
    record_entry(
        path or trajectory_path(),
        TrajectoryEntry(
            name=name,
            value=float(value),
            unit=unit,
            higher_is_better=higher_is_better,
            tolerance=tolerance,
        ),
    )


# -- the deterministic subset -------------------------------------------------


def record_serving_metrics(path: Optional[str] = None) -> None:
    """Modeled serving-plane numbers at the bench seed/scale."""
    from repro.serving import run_simulation
    from repro.serving.slos import ALL_TENANTS, window_latency_p99

    report = run_simulation("overload", seed=7, scale=0.5)
    record(
        "serving.overload.p99_ms",
        window_latency_p99(report.registry, ALL_TENANTS) * 1e3,
        "ms",
        higher_is_better=False,
        path=path,
    )
    record(
        "serving.overload.goodput_mbps",
        report.goodput_bytes_per_second / 1e6,
        "MB/s",
        higher_is_better=True,
        path=path,
    )
    record(
        "serving.overload.ratio_lost_pct",
        report.ratio_lost_to_degradation() * 100,
        "%",
        higher_is_better=False,
        path=path,
    )
    record(
        "serving.overload.served",
        float(report.served),
        "requests",
        higher_is_better=True,
        path=path,
    )


def record_parallel_metrics(path: Optional[str] = None) -> None:
    """Chunked-engine ratio at the bench corpus and chunk size."""
    from repro.corpus import silesia_like_corpus
    from repro.parallel import compress_chunked

    data = b"".join(silesia_like_corpus(1 << 14, seed=2023).values())
    for chunk_size, label in ((16 << 10, "16k"), (64 << 10, "64k")):
        result = compress_chunked(
            "zstd", data, 1, chunk_size=chunk_size, jobs=1
        )
        record(
            f"parallel.zstd1.ratio_{label}",
            result.ratio,
            "x",
            higher_is_better=True,
            path=path,
        )


def record_codec_metrics(path: Optional[str] = None) -> None:
    """Modeled codec speed/ratio on a fixed corpus sample."""
    from repro.codecs import get_codec
    from repro.corpus import silesia_like_corpus
    from repro.perfmodel import DEFAULT_MACHINE

    data = b"".join(silesia_like_corpus(1 << 14, seed=2023).values())
    result = get_codec("zstd").compress(data, 3)
    record(
        "codec.zstd3.modeled_mbs",
        DEFAULT_MACHINE.compress_speed("zstd", result.counters) / 1e6,
        "MB/s",
        higher_is_better=True,
        path=path,
    )
    record(
        "codec.zstd3.ratio",
        result.ratio,
        "x",
        higher_is_better=True,
        path=path,
    )


def record_kvstore_metrics(path: Optional[str] = None) -> None:
    """Modeled crash-recovery numbers for the durable LSM.

    A seeded workload is written durably (WAL + manifest + SST files),
    the store is dropped mid-stream (its unflushed tail still in the
    WAL), and a fresh open recovers. The recovery bill is fully modeled
    (a fixed base plus the sequential re-read of SST and WAL bytes; open
    decodes no block), so the throughput is a pure function of seed and
    payload.
    """
    from repro.corpus import generate_kv_records
    from repro.services.kvstore import KVStore, SimStorage

    storage = SimStorage(seed=2023)
    kwargs = dict(memtable_bytes=1 << 13, level0_table_limit=2)
    store = KVStore(storage=storage, **kwargs)
    for key, value in generate_kv_records(600, seed=2023):
        store.put(key, value)
    del store  # crash: no flush, the tail lives only in the WAL
    reopened = KVStore(storage=storage, **kwargs)
    report = reopened.last_recovery
    recovered_bytes = report.sst_bytes + report.wal_bytes_replayed
    record(
        "kvstore.recovery.modeled_ms",
        report.modeled_seconds * 1e3,
        "ms",
        higher_is_better=False,
        path=path,
    )
    record(
        "kvstore.recovery.throughput_mbs",
        recovered_bytes / report.modeled_seconds / 1e6,
        "MB/s",
        higher_is_better=True,
        path=path,
    )
    record(
        "kvstore.recovery.wal_records",
        float(report.wal_records_replayed),
        "records",
        higher_is_better=True,
        path=path,
    )


def record_cluster_metrics(path: Optional[str] = None) -> None:
    """Modeled fleet numbers for the sharded cluster simulator.

    One seeded ``fleet-surge`` run at smoke scale: the diurnal peak
    overloads the initial fleet, the autoscaler and rebalancer respond,
    and the headline numbers (served volume, fleet p99, on-time goodput,
    peak node count) are a pure function of (scenario, seed, scale).
    """
    from repro.cluster import run_cluster_simulation
    from repro.serving.slos import ALL_TENANTS, window_latency_p99

    report = run_cluster_simulation("fleet-surge", seed=7, scale=0.25)
    record(
        "cluster.sim.served",
        float(report.served),
        "requests",
        higher_is_better=True,
        path=path,
    )
    record(
        "cluster.sim.fleet_p99_ms",
        window_latency_p99(report.registry, ALL_TENANTS) * 1e3,
        "ms",
        higher_is_better=False,
        path=path,
    )
    record(
        "cluster.sim.goodput_mbps",
        report.goodput_bytes_per_second / 1e6,
        "MB/s",
        higher_is_better=True,
        path=path,
    )
    record(
        "cluster.sim.peak_nodes",
        float(report.nodes_peak),
        "nodes",
        higher_is_better=False,
        path=path,
    )


def record_graph_metrics(path: Optional[str] = None) -> None:
    """Graph-compression numbers: trained-graph ratios and search output.

    The per-category ratios compress one fixed 64 KiB corpus sample with
    the pinned trained graphs; the ``graph.search.*`` entries run one
    small seeded training round so the trajectory catches regressions in
    the search itself (a worse winner shows up as a ratio drop). Both
    are pure functions of seed and payload.
    """
    from repro.codecs import get_codec
    from repro.graphs.samples import category_sample, category_samples
    from repro.graphs.search import train_graph
    from repro.graphs.trained import TRAINED_CATEGORIES

    for category in TRAINED_CATEGORIES:
        data = category_sample(category, size=65536, seed=3)
        result = get_codec(f"graph:{category}").compress(data, 1)
        record(
            f"graph.{category}.ratio",
            result.ratio,
            "x",
            higher_is_better=True,
            path=path,
        )
    samples = category_samples("record", count=1, size=16384, seed=3)
    trained = train_graph(
        "record", samples, generations=2, population=3, seed=0
    )
    record(
        "graph.search.record_ratio",
        trained.ranked_graph.metrics.ratio,
        "x",
        higher_is_better=True,
        path=path,
    )
    record(
        "graph.search.evaluated",
        float(len(trained.result.ranked)),
        "candidates",
        higher_is_better=True,
        path=path,
    )


def regenerate(path: Optional[str] = None) -> str:
    """Recompute every deterministic entry; returns the path written."""
    target = path or trajectory_path()
    record_serving_metrics(target)
    record_parallel_metrics(target)
    record_codec_metrics(target)
    record_kvstore_metrics(target)
    record_cluster_metrics(target)
    record_graph_metrics(target)
    return target


def main() -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the deterministic benchmark trajectory"
    )
    parser.add_argument(
        "--output", default=None,
        help="trajectory file to write (default: $BENCH_TRAJECTORY or "
        "the committed BENCH_trajectory.json)",
    )
    args = parser.parse_args()
    target = regenerate(args.output)
    from repro.trajectory import load_trajectory

    entries = load_trajectory(target)
    print(f"wrote {len(entries)} entries to {target}")
    for name in sorted(entries):
        entry = entries[name]
        print(f"  {name:40s} {entry.value:12.6g} {entry.unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

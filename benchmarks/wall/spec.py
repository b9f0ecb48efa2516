"""Every name the benchmark emits: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root restates this table for the driver;
``test_wall_bench.py`` fails when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: BENCHMARK.json's ``run_seconds``: about what the R repetitions of one
#: workload measure on the 2-core sandbox. The inputs are fixed-size, so
#: this describes the sizes and steers nothing
RUN_SECONDS = 15
#: fresh-interpreter repetitions per run
REPS = 5
#: repetitions with the tracer installed that ``--trace`` adds: one reading
#: of a 4-s call against another differs by more than the tracing costs
TRACED_REPS = 2

WORKLOADS = (
    "codec_roundtrip",
    "codec_small",
    "serve_overload",
    "cluster_control",
    "kvstore_mixed",
)

LAYERS = (
    "corpus",
    "codecs.lz4",
    "codecs.zstd",
    "codecs.deflate",
    "codecs.matchfinders",
    "codecs.entropy",
    "codecs.checksum",
    "graphs",
    "parallel",
    "core",
    "perfmodel",
    "serving.workload",
    "serving.gateway",
    "serving.simulate",
    "cluster",
    "obs",
    "services.kvstore.db",
    "services.kvstore.wal",
    "services.kvstore.sst",
    "services.kvstore.storage",
)

ROUNDTRIP_CONFIGS = (
    "lz4-1", "lz4-9", "zstd-1", "zstd-3", "zstd-9", "zlib-6", "zstd-19",
)
SMALL_CONFIGS = ("lz4-1", "zstd-3", "zstd-3-dict")
STRATEGIES = ("fast", "greedy", "lazy", "lazy2", "optimal")
CODEC_FAMILIES = ("lz4", "zstd", "zlib")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: share of the baseline by which the metric may worsen; the one bound
    #: BENCHMARK.json, results.json and trajectory.json all carry (None:
    #: per-layer, never gated)
    bound: Optional[float] = None
    #: workloads that report it (empty: all)
    workloads: Tuple[str, ...] = ()

    def on(self, workload: str) -> bool:
        return not self.workloads or workload in self.workloads


#: gated by the driver, which wants every gated metric on every workload and
#: never zero. ``work_s`` is the wall seconds of the workload's timed
#: operations (fixed-size inputs, so it compares across commits). The driver
#: takes its ten runs at ten seeds on a machine whose speed moves by 30 % for
#: seconds at a time: the two timings carry the widest bound it allows
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("work_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: end-to-end metrics that exist only on the workloads listed for them;
#: the driver sees them as per-layer rows (zero elsewhere)
LISTED = (
    Metric("compress_mbs", "MB/s", "higher", 0.10, ("codec_roundtrip",)),
    Metric("decompress_mbs", "MB/s", "higher", 0.10, ("codec_roundtrip",)),
    # repeats exactly at one seed, so any same-seed drift is a regression
    Metric("ratio", "x", "higher", 0.0, ("codec_roundtrip", "codec_small")),
    Metric("small_compress_p50_us", "us", "lower", 0.10, ("codec_small",)),
    Metric("small_compress_p95_us", "us", "lower", 0.10, ("codec_small",)),
    Metric("small_decompress_p50_us", "us", "lower", 0.10, ("codec_small",)),
    Metric("sim_served_per_s", "1/s", "higher", 0.10,
           ("serve_overload", "cluster_control")),
    Metric("put_ops_s", "1/s", "higher", 0.10, ("kvstore_mixed",)),
    Metric("get_p50_ms", "ms", "lower", 0.10, ("kvstore_mixed",)),
    Metric("get_p95_ms", "ms", "lower", 0.10, ("kvstore_mixed",)),
    Metric("recover_s", "s", "lower", 0.10, ("kvstore_mixed",)),
    Metric("stored_ratio", "x", "higher", 0.0, ("kvstore_mixed",)),
    Metric("error_rate", "share", "lower", 0.0),
)


def _per_layer() -> Tuple[Metric, ...]:
    rows = []
    for layer in LAYERS:
        rows.append(Metric(f"{layer}.self_s", "s", "lower"))
        rows.append(Metric(f"{layer}.calls", "count", "lower"))
    for config in ROUNDTRIP_CONFIGS:
        rows.append(Metric(f"codecs.{config}.compress_mbs", "MB/s", "higher"))
        rows.append(Metric(f"codecs.{config}.decompress_mbs", "MB/s", "higher"))
    for strategy in STRATEGIES:
        rows.append(Metric(f"codecs.matchfinders.{strategy}.mbs", "MB/s", "higher"))
    for config in SMALL_CONFIGS:
        rows.append(Metric(f"codecs.small.{config}.compress_p50_us", "us", "lower"))
        rows.append(Metric(f"codecs.small.{config}.decompress_p50_us", "us", "lower"))
    for family in CODEC_FAMILIES:
        # measured seconds / MachineModel seconds for the same counters
        rows.append(Metric(f"perfmodel.residual.{family}.compress", "x", "lower"))
        rows.append(Metric(f"perfmodel.residual.{family}.decompress", "x", "lower"))
    rows += [
        Metric("ref.zlib-6.compress_mbs", "MB/s", "higher"),
        Metric("ref.zlib-6.decompress_mbs", "MB/s", "higher"),
        Metric("codecs.deflate.slowdown_vs_c", "x", "lower"),
        Metric("ref.pyloop_mops", "Mop/s", "higher"),
        Metric("parallel.jobs1.compress_mbs", "MB/s", "higher"),
        Metric("parallel.jobsN.compress_mbs", "MB/s", "higher"),
        Metric("parallel.jobsN.decompress_mbs", "MB/s", "higher"),
        Metric("parallel.speedup", "x", "higher"),
        Metric("parallel.overhead_pct", "%", "lower"),
        Metric("core.ladder_build_s", "s", "lower"),
        Metric("core.configs_per_s", "1/s", "higher"),
        Metric("graphs.record.compress_mbs", "MB/s", "higher"),
        Metric("graphs.record.decompress_mbs", "MB/s", "higher"),
        Metric("serving.codec_share", "share", "lower"),
        Metric("serving.loop_us_per_event", "us", "lower"),
        Metric("cluster.codec_share", "share", "lower"),
        Metric("cluster.loop_us_per_req", "us", "lower"),
        Metric("cluster.memo_hit_rate", "share", "higher"),
        Metric("obs.enabled_overhead_pct", "%", "lower"),
        Metric("services.kvstore.flush_s", "s", "lower"),
        Metric("services.kvstore.compact_s", "s", "lower"),
        Metric("services.kvstore.compactions", "count", "lower"),
        Metric("services.kvstore.write_amp", "x", "lower"),
        Metric("services.kvstore.wal_bytes_per_user_byte", "x", "lower"),
        Metric("services.kvstore.syncs_per_put", "x", "lower"),
        Metric("services.kvstore.blocks_decoded_per_get", "x", "lower"),
        Metric("services.kvstore.bloom_skip_rate", "share", "higher"),
        Metric("services.kvstore.blockcache_hit_rate", "share", "higher"),
        Metric("services.kvstore.get_cached_p50_ms", "ms", "lower"),
        Metric("services.kvstore.scan_keys_per_s", "1/s", "higher"),
        Metric("trace.overhead_pct", "%", "lower"),
        Metric("trace.unattributed_share", "share", "lower"),
    ]
    rows += [Metric(m.name, m.unit, m.better) for m in LISTED]
    return tuple(rows)


PER_LAYER = _per_layer()

BY_NAME: Dict[str, Metric] = {m.name: m for m in PER_LAYER}
# the gated definitions win: they carry the bounds results.json reports
BY_NAME.update({m.name: m for m in LISTED})
BY_NAME.update({m.name: m for m in END_TO_END})

"""Hook functions called from instrumented hot paths.

Each hook translates one event (a codec call, a block decode, an RPC
message) into registry updates keyed the way the paper's fleet profiler
keys its aggregation: (algorithm, direction, level, stage). Callers are
responsible for the enabled check — the hot-path contract is::

    if OBS_STATE.enabled:
        record_codec_call(...)

so a disabled process pays exactly one attribute read and branch per call.
Every hook writes to the process-global registry.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import get_registry

#: metric family names (importable so tests and exporters avoid typos)
CODEC_CALLS = "repro_codec_calls_total"
CODEC_BYTES = "repro_codec_bytes_total"
CODEC_STAGE_OPS = "repro_codec_stage_ops_total"
CODEC_SECONDS = "repro_codec_call_seconds"
CODEC_BLOCK_BYTES = "repro_codec_block_bytes"
BLOCK_DECODE_SECONDS = "repro_kvstore_block_decode_seconds"
BLOCK_CACHE = "repro_kvstore_block_cache_total"
CACHE_REQUESTS = "repro_cache_requests_total"
CACHE_BYTES = "repro_cache_bytes_total"
RPC_MESSAGES = "repro_rpc_messages_total"
RPC_BYTES = "repro_rpc_bytes_total"
RPC_SECONDS = "repro_rpc_message_seconds"
RPC_RETRIES = "repro_rpc_retries_total"
RPC_FAILED = "repro_rpc_failed_messages_total"
FLEET_SAMPLES = "repro_fleet_cycle_samples_total"
PARALLEL_CHUNKS = "repro_parallel_chunks_total"
PARALLEL_CHUNK_SECONDS = "repro_parallel_chunk_seconds"
FAULTS_INJECTED = "repro_faults_injected_total"
BREAKER_TRANSITIONS = "repro_resilience_breaker_transitions_total"
QUARANTINES = "repro_resilience_quarantines_total"
RECOVERY_SECONDS = "repro_resilience_recovery_seconds"
WAL_APPENDS = "repro_kvstore_wal_appends_total"
WAL_BYTES = "repro_kvstore_wal_bytes_total"
WAL_REPLAYED = "repro_kvstore_wal_replayed_records_total"
TORN_TAILS = "repro_kvstore_torn_tail_truncations_total"
KVSTORE_RECOVERY_SECONDS = "repro_kvstore_recovery_seconds"
FILTERS_DROPPED = "repro_kvstore_filters_dropped_total"


def _level_label(level: Optional[int]) -> str:
    # decompression is level-oblivious ("one decompression path" — §II)
    return "na" if level is None else str(level)


def record_codec_call(
    algorithm: str,
    direction: str,
    level: Optional[int],
    counters,
    seconds: float,
) -> None:
    """One compress/decompress call: stage-split counters + duration.

    ``counters`` is a :class:`repro.codecs.base.StageCounters`; its
    per-stage operation counts are folded into the match-finding/entropy
    split of Fig. 7 (compression) or the sequence/entropy decode split
    (decompression).
    """
    reg = get_registry()
    lvl = _level_label(level)
    reg.counter(CODEC_CALLS, help="codec API calls").inc(
        1, algorithm=algorithm, direction=direction, level=lvl
    )
    bytes_total = reg.counter(CODEC_BYTES, help="bytes through codec APIs")
    if counters.bytes_in:
        bytes_total.inc(
            counters.bytes_in,
            algorithm=algorithm, direction=direction, level=lvl, kind="input",
        )
    if counters.bytes_out:
        bytes_total.inc(
            counters.bytes_out,
            algorithm=algorithm, direction=direction, level=lvl, kind="output",
        )
    if direction == "compress":
        stages = {
            "match_finding": (
                counters.positions_scanned
                + counters.hash_probes
                + counters.match_bytes_compared
            ),
            "entropy": counters.entropy_symbols + counters.table_builds,
            "setup": counters.setup_entries,
        }
    else:
        stages = {
            "sequence_decode": (
                counters.sequences_decoded
                + counters.literal_bytes_copied
                + counters.match_bytes_copied
            ),
            "entropy": counters.entropy_symbols_decoded,
        }
    stage_ops = reg.counter(
        CODEC_STAGE_OPS, help="pipeline-stage operations (Fig. 7 split)"
    )
    for stage, ops in stages.items():
        if ops:
            stage_ops.inc(
                ops,
                algorithm=algorithm, direction=direction, level=lvl, stage=stage,
            )
    reg.histogram(
        CODEC_SECONDS, help="wall seconds per codec call"
    ).observe(seconds, algorithm=algorithm, direction=direction)
    reg.histogram(
        CODEC_BLOCK_BYTES, help="input bytes per codec call (Fig. 5 shape)"
    ).observe(float(counters.bytes_in), algorithm=algorithm, direction=direction)


def record_block_decode(algorithm: str, seconds: float) -> None:
    """One SST block decompressed on the read path (Fig. 13's latency)."""
    reg = get_registry()
    reg.histogram(
        BLOCK_DECODE_SECONDS, help="per-block decode latency, read path"
    ).observe(seconds, algorithm=algorithm)


def record_block_cache(hit: bool) -> None:
    """One block-cache probe."""
    reg = get_registry()
    reg.counter(BLOCK_CACHE, help="block cache probes").inc(
        1, result="hit" if hit else "miss"
    )


def record_cache_request(op: str, result: str, bytes_count: int = 0) -> None:
    """One cache-service operation (server set/get, client get)."""
    reg = get_registry()
    reg.counter(CACHE_REQUESTS, help="cache service operations").inc(
        1, op=op, result=result
    )
    if bytes_count:
        reg.counter(CACHE_BYTES, help="cache service bytes moved").inc(
            bytes_count, op=op
        )


def record_rpc_message(
    algorithm: str,
    raw_bytes: int,
    wire_bytes: int,
    compress_seconds: float,
    transfer_seconds: float,
    decompress_seconds: float,
) -> None:
    """One RPC send: byte accounting plus per-stage latency histograms."""
    reg = get_registry()
    reg.counter(RPC_MESSAGES, help="RPC messages sent").inc(
        1, algorithm=algorithm
    )
    rpc_bytes = reg.counter(RPC_BYTES, help="RPC payload bytes")
    rpc_bytes.inc(raw_bytes, algorithm=algorithm, kind="raw")
    rpc_bytes.inc(wire_bytes, algorithm=algorithm, kind="wire")
    seconds = reg.histogram(
        RPC_SECONDS, help="per-message seconds by pipeline stage"
    )
    seconds.observe(compress_seconds, algorithm=algorithm, stage="compress")
    seconds.observe(transfer_seconds, algorithm=algorithm, stage="transfer")
    seconds.observe(decompress_seconds, algorithm=algorithm, stage="decompress")


def record_rpc_retry(reason: str) -> None:
    """One RPC attempt retried (reason: drop, timeout, corrupt)."""
    reg = get_registry()
    reg.counter(RPC_RETRIES, help="RPC attempts retried").inc(1, reason=reason)


def record_rpc_failure(reason: str) -> None:
    """One RPC message abandoned after exhausting its retry budget."""
    reg = get_registry()
    reg.counter(RPC_FAILED, help="RPC messages failed after retries").inc(
        1, reason=reason
    )


def record_fault_injected(site: str, kind: str) -> None:
    """One fault fired by the injection layer at ``site``."""
    reg = get_registry()
    reg.counter(FAULTS_INJECTED, help="injected faults fired").inc(
        1, site=site, kind=kind
    )


def record_breaker_transition(breaker: str, to_state: str) -> None:
    """One circuit-breaker state transition."""
    reg = get_registry()
    reg.counter(
        BREAKER_TRANSITIONS, help="circuit breaker state transitions"
    ).inc(1, breaker=breaker, to_state=to_state)


def record_quarantine(source: str) -> None:
    """One data unit quarantined after failing verified-decompress."""
    reg = get_registry()
    reg.counter(QUARANTINES, help="data units quarantined").inc(1, source=source)


def record_recovery(source: str, seconds: float) -> None:
    """One successful recovery and its modeled latency."""
    reg = get_registry()
    reg.histogram(
        RECOVERY_SECONDS, help="modeled seconds to recover from a fault"
    ).observe(seconds, source=source)


def record_parallel_chunk(
    algorithm: str,
    direction: str,
    seconds: float,
    bytes_in: int,
    executor: str,
) -> None:
    """One chunk processed by the parallel engine (worker or in-process).

    Chunk-level telemetry is recorded by the *parent* after the pool
    returns -- worker processes write into forked registry copies that die
    with them, so the engine ships (duration, sizes) back alongside each
    frame and stitches them here.
    """
    reg = get_registry()
    reg.counter(PARALLEL_CHUNKS, help="chunks through the parallel engine").inc(
        1, algorithm=algorithm, direction=direction, executor=executor
    )
    reg.histogram(
        PARALLEL_CHUNK_SECONDS, help="wall seconds per parallel-engine chunk"
    ).observe(seconds, algorithm=algorithm, direction=direction)
    reg.histogram(
        CODEC_BLOCK_BYTES, help="input bytes per codec call (Fig. 5 shape)"
    ).observe(float(bytes_in), algorithm=algorithm, direction=direction)


def record_fleet_sample(
    service: str,
    algorithm: Optional[str],
    direction: Optional[str],
    level: Optional[int],
    stage: Optional[str],
    weight: int,
) -> None:
    """One aggregated profiler leaf: ``weight`` cycle samples attributed to
    (service, algorithm, direction, level, stage) — the Section III-A key."""
    reg = get_registry()
    reg.counter(
        FLEET_SAMPLES, help="fleet cycle samples by profiler leaf"
    ).inc(
        weight,
        service=service,
        algorithm=algorithm or "none",
        direction=direction or "none",
        level=_level_label(level),
        stage=stage or "none",
    )


def record_wal_append(records: int, bytes_count: int) -> None:
    """One WAL group append: record count and framed bytes synced."""
    reg = get_registry()
    reg.counter(WAL_APPENDS, help="WAL group appends").inc(1)
    reg.counter(WAL_BYTES, help="WAL bytes by direction").inc(
        bytes_count, direction="append"
    )
    reg.counter(
        WAL_REPLAYED, help="WAL records written/replayed"
    ).inc(records, direction="append")


def record_wal_replay(records: int, bytes_count: int) -> None:
    """WAL records re-applied to the memtable during recovery."""
    reg = get_registry()
    reg.counter(WAL_BYTES, help="WAL bytes by direction").inc(
        bytes_count, direction="replay"
    )
    reg.counter(
        WAL_REPLAYED, help="WAL records written/replayed"
    ).inc(records, direction="replay")


def record_torn_tail(segment: str) -> None:
    """One torn WAL tail truncated at the first bad checksum."""
    reg = get_registry()
    reg.counter(
        TORN_TAILS, help="torn WAL tails truncated on replay"
    ).inc(1, segment=segment)


def record_kvstore_recovery(seconds: float, filters_dropped: int) -> None:
    """One crash-recovery open: its modeled latency, and the SST filters it
    dropped because their footer failed its checksum."""
    reg = get_registry()
    reg.histogram(
        KVSTORE_RECOVERY_SECONDS, help="modeled seconds per kvstore recovery"
    ).observe(seconds)
    if filters_dropped:
        reg.counter(
            FILTERS_DROPPED, help="SST bloom filters dropped at open"
        ).inc(filters_dropped)

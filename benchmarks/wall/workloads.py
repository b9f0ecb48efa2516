"""The five workloads: what each runs, how it is timed, what it checks.

Every workload is a few functions over plain data:

- ``prepare(seed, smoke)`` builds the inputs (untimed, a pure function of
  the seed, fixed in size);
- ``run(inputs, checks)`` times every call into the program's public
  functions with ``perf_counter`` from outside, checks every output, and
  returns a :class:`RunResult`: the timings in execution order
  (``samples``) and the facts that do not depend on the clock (byte
  counts, simulator tallies);
- ``summarise(samples, facts)`` turns timings and facts into the named
  metrics. It is a pure function, so ``bench.py`` can first combine the
  same operation's timing across repetitions and summarise afterwards;
- ``probes(inputs, rows)`` (optional) measures the extra per-layer rows
  that only the traced run reports. They run untraced.

The program under test only ever sees the generated inputs; the seed stays
in ``prepare``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import statistics
import zlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import spec
from repro import obs
from repro.cluster import simulate as cluster_sim
from repro.codecs import get_codec, train_dictionary
from repro.codecs.matchfinders import finder_for_strategy
from repro.corpus import (
    CACHE1_TYPES,
    generate_cache_items,
    generate_kv_records,
    silesia_like_corpus,
)
from repro.graphs.samples import category_sample
from repro.parallel import engine as parallel_engine
from repro.parallel import plan_chunks
from repro.perfmodel import DEFAULT_MACHINE
from repro.services.kvstore import KVStore, SimStorage
from repro.serving import simulate as serving_sim

MB = 1e6

Metrics = Dict[str, float]


class Checks:
    """Output checks: every one counts as an attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def that(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 8:
                self.messages.append(message)


@dataclass
class RunResult:
    """What one ``run`` over the inputs measured and learned."""

    #: seconds of every timed region, in execution order
    samples: List[float]
    #: what the run learned that no clock touches (JSON-serialisable);
    #: identical in every repetition at the same seed
    facts: dict
    outputs_sha256: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, bool], dict]
    run: Callable[[dict, Checks], RunResult]
    #: (samples, facts) -> (end-to-end metrics, per-layer rows)
    summarise: Callable[[List[float], dict], Tuple[Metrics, Metrics]]
    #: rows only the traced run reports, measured untraced: (inputs, rows)
    probes: Optional[Callable[[dict, Metrics], Metrics]] = None
    #: rows computed from a traced run: (layer summary, span_seconds bound
    #: to the run's spans, facts)
    trace_rows: Optional[Callable[[dict, Callable, dict], Metrics]] = None


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile of unsorted samples, ``p`` in [0, 100]."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def warm_up() -> None:
    """One tiny call per codec family so lazily built tables (CRC, default
    FSE tables, level tables) are not charged to the first timed call."""
    sample = bytes(range(256)) * 4
    for algorithm in ("lz4", "zstd", "zlib"):
        codec = get_codec(algorithm)
        codec.decompress(codec.compress(sample).data)


# ---------------------------------------------------------------------------
# codec_roundtrip
# ---------------------------------------------------------------------------

ROUNDTRIP_CONFIGS = spec.ROUNDTRIP_CONFIGS
#: the optimal parser is ~15x slower per byte: it sees a slice of each file
SLOW_CONFIG = "zstd-19"
#: chunk size for the parallel-engine probe (a KVSTORE1-sized block)
_PROBE_CHUNK = 16384


def split_config(config: str) -> Tuple[str, int]:
    algorithm, __, level = config.partition("-")
    return algorithm, int(level)


def prepare_roundtrip(seed: int, smoke: bool) -> dict:
    file_size, slow_slice = (4096, 1024) if smoke else (32768, 8192)
    files = list(silesia_like_corpus(file_size, seed=seed).items())
    return {
        "files": files,
        "slow_slice": slow_slice,
        "inputs_sha256": _sha(data for __, data in files),
    }


def _config_files(inputs: dict, config: str):
    if config == SLOW_CONFIG:
        return [(n, d[: inputs["slow_slice"]]) for n, d in inputs["files"]]
    return inputs["files"]


def run_roundtrip(inputs: dict, checks: Checks) -> RunResult:
    """Samples: (compress, decompress) per file, config by config."""
    digest = hashlib.sha256()
    samples: List[float] = []
    #: per config: bytes in, bytes out, modeled compress s, modeled decompress s
    per_config: Dict[str, List[float]] = {}
    for config in ROUNDTRIP_CONFIGS:
        algorithm, level = split_config(config)
        codec = get_codec(algorithm)
        tally = per_config[config] = [0, 0, 0.0, 0.0]
        for name, data in _config_files(inputs, config):
            t0 = perf_counter()
            packed = codec.compress(data, level)
            t1 = perf_counter()
            back = codec.decompress(packed.data)
            t2 = perf_counter()
            samples += (t1 - t0, t2 - t1)
            checks.that(back.data == data, f"{config} {name}: round trip differs")
            if algorithm == "zlib":
                checks.that(
                    _stdlib_inflates(packed.data, data),
                    f"{config} {name}: stdlib zlib rejects the stream",
                )
            digest.update(packed.data)
            tally[0] += len(data)
            tally[1] += len(packed.data)
            tally[2] += DEFAULT_MACHINE.compress_seconds(algorithm, packed.counters)
            tally[3] += DEFAULT_MACHINE.decompress_seconds(algorithm, back.counters)
    return RunResult(
        samples,
        {"files": len(inputs["files"]), "per_config": per_config},
        digest.hexdigest(),
    )


def summarise_roundtrip(samples: List[float], facts: dict) -> Tuple[Metrics, Metrics]:
    rows: Metrics = {}
    compress_rates = []
    decompress_rates = []
    total_in = total_out = 0
    #: family -> [measured compress s, modeled, measured decompress s, modeled]
    residual: Dict[str, List[float]] = {}
    stride = 2 * facts["files"]
    for index, config in enumerate(ROUNDTRIP_CONFIGS):
        bytes_in, bytes_out, model_c, model_d = facts["per_config"][config]
        timings = samples[index * stride : (index + 1) * stride]
        compress_s = sum(timings[0::2])
        decompress_s = sum(timings[1::2])
        rows[f"codecs.{config}.compress_mbs"] = bytes_in / compress_s / MB
        rows[f"codecs.{config}.decompress_mbs"] = bytes_in / decompress_s / MB
        compress_rates.append(bytes_in / compress_s / MB)
        decompress_rates.append(bytes_in / decompress_s / MB)
        total_in += bytes_in
        total_out += bytes_out
        family = residual.setdefault(split_config(config)[0], [0.0] * 4)
        for slot, value in enumerate((compress_s, model_c, decompress_s, model_d)):
            family[slot] += value
    for algorithm, (c_s, c_model, d_s, d_model) in residual.items():
        rows[f"perfmodel.residual.{algorithm}.compress"] = c_s / c_model
        rows[f"perfmodel.residual.{algorithm}.decompress"] = d_s / d_model
    metrics = {
        # geometric means: a gain at any level shows, zstd-19 cannot drown
        # the rest
        "compress_mbs": geomean(compress_rates),
        "decompress_mbs": geomean(decompress_rates),
        "ratio": total_in / total_out,
    }
    return metrics, rows


def _stdlib_inflates(stream: bytes, expected: bytes) -> bool:
    try:
        return zlib.decompress(stream) == expected
    except zlib.error:
        return False


def probes_roundtrip(inputs: dict, rows: Metrics) -> Metrics:
    out: Metrics = {}
    out.update(_probe_matchfinders(inputs))
    out.update(_probe_stdlib_zlib(inputs, rows))
    out.update(_probe_parallel(inputs))
    out.update(_probe_graphs(inputs))
    return out


def _probe_matchfinders(inputs: dict) -> Metrics:
    """``parse`` alone, per strategy, at the parameters of the first
    config in the set that resolves to that strategy."""
    rows: Metrics = {}
    for config in ROUNDTRIP_CONFIGS:
        algorithm, level = split_config(config)
        codec = get_codec(algorithm)
        strategy = codec.params_for_level(level).strategy
        row = f"codecs.matchfinders.{strategy}.mbs"
        if row in rows:
            continue
        finder = finder_for_strategy(strategy)
        seconds = 0.0
        parsed = 0
        for __, data in _config_files(inputs, config):
            params = (
                # zstd shrinks its tables to the input, as _compress does
                codec.params_for_level(level, len(data))
                if algorithm == "zstd"
                else codec.params_for_level(level)
            )
            t0 = perf_counter()
            finder.parse(data, 0, params)
            seconds += perf_counter() - t0
            parsed += len(data)
        rows[row] = parsed / seconds / MB
    return rows


def _probe_stdlib_zlib(inputs: dict, rows: Metrics) -> Metrics:
    """C zlib on the same payloads: the 'N x slower than C' column."""
    payloads = [data for __, data in inputs["files"]]
    total = sum(len(p) for p in payloads)
    rounds = 5
    compress_s = decompress_s = 0.0
    for __ in range(rounds):
        t0 = perf_counter()
        streams = [zlib.compress(p, 6) for p in payloads]
        t1 = perf_counter()
        for stream in streams:
            zlib.decompress(stream)
        t2 = perf_counter()
        compress_s += t1 - t0
        decompress_s += t2 - t1
    ref_compress = total * rounds / compress_s / MB
    return {
        "ref.zlib-6.compress_mbs": ref_compress,
        "ref.zlib-6.decompress_mbs": total * rounds / decompress_s / MB,
        "codecs.deflate.slowdown_vs_c": (
            ref_compress / rows["codecs.zlib-6.compress_mbs"]
        ),
    }


def _probe_parallel(inputs: dict) -> Metrics:
    """Chunked engine at jobs=1 and jobs=nproc against direct codec calls
    over the same ``plan_chunks`` spans."""
    data = b"".join(d for __, d in inputs["files"])
    codec = get_codec("zstd")
    jobs = max(2, os.cpu_count() or 2)

    def fastest(call, rounds: int = 2):
        """(seconds, result) of the quicker of two identical calls."""
        best = None
        for __ in range(rounds):
            t0 = perf_counter()
            result = call()
            seconds = perf_counter() - t0
            if best is None or seconds < best[0]:
                best = (seconds, result)
        return best

    chunked = parallel_engine.compress_chunked
    direct_s, frames = fastest(
        lambda: [
            codec.compress(data[a:b], 3).data
            for a, b in plan_chunks(len(data), _PROBE_CHUNK)
        ]
    )
    serial_s, serial = fastest(
        lambda: chunked("zstd", data, level=3, chunk_size=_PROBE_CHUNK, jobs=1)
    )
    pooled_s, pooled = fastest(
        lambda: chunked("zstd", data, level=3, chunk_size=_PROBE_CHUNK, jobs=jobs)
    )
    pooled_decode_s, back = fastest(
        lambda: parallel_engine.decompress_chunked("zstd", pooled.data, jobs=jobs)
    )

    if not (b"".join(frames) == serial.data == pooled.data and back.data == data):
        raise AssertionError("parallel probe: streams differ across jobs")
    size_mb = len(data) / MB
    return {
        "parallel.jobs1.compress_mbs": size_mb / serial_s,
        "parallel.jobsN.compress_mbs": size_mb / pooled_s,
        "parallel.jobsN.decompress_mbs": size_mb / pooled_decode_s,
        "parallel.speedup": serial_s / pooled_s,
        "parallel.overhead_pct": (serial_s / direct_s - 1.0) * 100.0,
    }


def _probe_graphs(inputs: dict) -> Metrics:
    size = len(inputs["files"][0][1])
    sample = category_sample("record", size=size, seed=size)
    codec = get_codec("graph:record")
    t0 = perf_counter()
    packed = codec.compress(sample)
    t1 = perf_counter()
    back = codec.decompress(packed.data)
    t2 = perf_counter()
    if back.data != sample:
        raise AssertionError("graph probe: round trip differs")
    return {
        "graphs.record.compress_mbs": size / (t1 - t0) / MB,
        "graphs.record.decompress_mbs": size / (t2 - t1) / MB,
    }


# ---------------------------------------------------------------------------
# codec_small
# ---------------------------------------------------------------------------

#: (row label, algorithm, level, use the per-type dictionary)
SMALL_CONFIGS = tuple(
    (label, *split_config(label.replace("-dict", "")), label.endswith("-dict"))
    for label in spec.SMALL_CONFIGS
)
#: the cache's production config: its latencies are the end-to-end metrics
SMALL_HEADLINE = "zstd-3-dict"
_DICT_BYTES = 8192


def prepare_small(seed: int, smoke: bool) -> dict:
    count = 60 if smoke else 320
    # every fourth item by size, kept in generation order: item sizes then
    # sit on the same quantile grid at every seed, so seeds change the
    # content of the items and not how big the median call is
    pool = generate_cache_items(CACHE1_TYPES, 4 * count, seed=seed)
    by_size = sorted(range(len(pool)), key=lambda i: len(pool[i][1]))
    items = [pool[i] for i in sorted(by_size[2::4])]
    by_type: Dict[str, List[bytes]] = {}
    for type_name, payload in generate_cache_items(
        CACHE1_TYPES, count, seed=seed + 1
    ):
        by_type.setdefault(type_name, []).append(payload)
    dictionaries = {
        type_name: train_dictionary(samples, _DICT_BYTES).content
        for type_name, samples in sorted(by_type.items())
    }
    for type_name, __ in items:
        if type_name not in dictionaries:
            raise ValueError(f"no training sample of type {type_name}")
    return {
        "items": items,
        "dictionaries": dictionaries,
        "inputs_sha256": _sha(payload for __, payload in items),
    }


def _small_calls(inputs: dict, label, algorithm, level, use_dict, checks, digest):
    """One call each way per item: (compress s, decompress s) per item in
    order, and the compressed size of each item."""
    codec = get_codec(algorithm)
    dictionaries = inputs["dictionaries"]
    samples: List[float] = []
    sizes_out: List[int] = []
    for type_name, payload in inputs["items"]:
        dictionary = dictionaries[type_name] if use_dict else None
        t0 = perf_counter()
        packed = codec.compress(payload, level, dictionary)
        t1 = perf_counter()
        back = codec.decompress(packed.data, dictionary)
        t2 = perf_counter()
        samples += (t1 - t0, t2 - t1)
        if checks is not None:
            checks.that(back.data == payload, f"{label} {type_name}: round trip differs")
            digest.update(packed.data)
        sizes_out.append(len(packed.data))
    return samples, sizes_out


def run_small(inputs: dict, checks: Checks) -> RunResult:
    digest = hashlib.sha256()
    samples: List[float] = []
    sizes_out = {}
    for label, algorithm, level, use_dict in SMALL_CONFIGS:
        timings, sizes_out[label] = _small_calls(
            inputs, label, algorithm, level, use_dict, checks, digest
        )
        samples += timings
    return RunResult(
        samples,
        {
            "sizes_in": [len(payload) for __, payload in inputs["items"]],
            "sizes_out": sizes_out,
        },
        digest.hexdigest(),
    )


def summarise_small(samples: List[float], facts: dict) -> Tuple[Metrics, Metrics]:
    sizes_in = facts["sizes_in"]
    stride = 2 * len(sizes_in)
    rows: Metrics = {}
    metrics: Metrics = {}
    total_out = 0
    for index, (label, *__) in enumerate(SMALL_CONFIGS):
        timings = samples[index * stride : (index + 1) * stride]
        compress_s, decompress_s = timings[0::2], timings[1::2]
        rows[f"codecs.small.{label}.compress_p50_us"] = (
            statistics.median(compress_s) * 1e6
        )
        rows[f"codecs.small.{label}.decompress_p50_us"] = (
            statistics.median(decompress_s) * 1e6
        )
        total_out += sum(facts["sizes_out"][label])
        if label == SMALL_HEADLINE:
            metrics["small_compress_p50_us"] = statistics.median(compress_s) * 1e6
            metrics["small_compress_p95_us"] = percentile(compress_s, 95) * 1e6
            metrics["small_decompress_p50_us"] = (
                statistics.median(decompress_s) * 1e6
            )
    metrics["ratio"] = len(SMALL_CONFIGS) * sum(sizes_in) / total_out
    return metrics, rows


def probes_small(inputs: dict, rows: Metrics) -> Metrics:
    """The headline config again with telemetry on, against telemetry off,
    alternating so drift hits both sides."""
    label, algorithm, level, use_dict = SMALL_CONFIGS[-1]
    subset = dict(inputs, items=inputs["items"][:150])
    #: telemetry state -> per-call seconds, each call at the faster of two rounds
    fastest: Dict[bool, List[float]] = {}
    try:
        for enabled in (False, True, True, False):
            (obs.enable if enabled else obs.disable)()
            timings, __ = _small_calls(
                subset, label, algorithm, level, use_dict, None, None
            )
            previous = fastest.get(enabled, timings)
            fastest[enabled] = [min(pair) for pair in zip(previous, timings)]
    finally:
        obs.disable()
        obs.reset()
    seconds = {state: sum(timings) for state, timings in fastest.items()}
    return {
        "obs.enabled_overhead_pct": (seconds[True] / seconds[False] - 1.0) * 100.0
    }


# ---------------------------------------------------------------------------
# the two simulators
# ---------------------------------------------------------------------------


#: Both simulators run one fixed input, at their entry points' own default
#: seed; ``--seed`` does not reach them. A simulator run's cost depends on
#: its seed by itself (which payloads lead the 12-sample ladder measurement,
#: which tenants carry the bytes): across raw seeds on one commit, arrivals
#: per second spread by 29 % (serve) and 19 % (cluster), interquartile range
#: over median. Runs at different seeds would compare traffic, not code.
SIM_SEED = 7


def _sim_result(report, wall: float, scorecard: str, checks: Checks, label: str):
    checks.that(
        report.arrivals == report.admitted + report.throttled + report.shed,
        f"{label}: arrivals != admitted + throttled + shed",
    )
    checks.that(
        report.served + report.expired <= report.admitted,
        f"{label}: served + expired > admitted",
    )
    checks.that(report.served > 0, f"{label}: nothing served")
    return RunResult(
        [wall],
        {
            "arrivals": report.arrivals,
            "served": report.served,
        },
        _sha([scorecard.encode()]),
    )


def summarise_sim(samples: List[float], facts: dict) -> Tuple[Metrics, Metrics]:
    (wall,) = samples
    metrics = {"sim_served_per_s": facts["served"] / wall}
    rows: Metrics = {}
    if "memo_hit_rate" in facts:
        rows["cluster.memo_hit_rate"] = facts["memo_hit_rate"]
    return metrics, rows


def prepare_serve(seed: int, smoke: bool) -> dict:
    scale = 0.03 if smoke else 0.15
    return {
        "seed": SIM_SEED,
        "scale": scale,
        "inputs_sha256": _sha([f"overload/{SIM_SEED}/{scale}".encode()]),
    }


def run_serve(inputs: dict, checks: Checks) -> RunResult:
    t0 = perf_counter()
    report = serving_sim.run_simulation(
        "overload", inputs["seed"], scale=inputs["scale"]
    )
    wall = perf_counter() - t0
    return _sim_result(
        report, wall, serving_sim.format_scorecard(report), checks, "serve_overload"
    )


def trace_rows_serve(summary: dict, span_seconds, facts: dict) -> Metrics:
    ladder_s, __ = span_seconds("simulate.build_ladder")
    __, configs = span_seconds("CompEngine.measure")
    events = facts["arrivals"] + facts["served"]
    return {
        "serving.codec_share": _codec_share(summary),
        "serving.loop_us_per_event": (
            summary["serving.simulate"]["self_s"] / events * 1e6
        ),
        "core.ladder_build_s": ladder_s,
        "core.configs_per_s": configs / ladder_s,
    }


def prepare_cluster(seed: int, smoke: bool) -> dict:
    scale = 0.25 if smoke else 6.0
    return {
        "seed": SIM_SEED,
        "scale": scale,
        # four payloads per tenant: the codec cache absorbs nearly every
        # request, which is what makes this the codec-bypass workload
        "scenario": dataclasses.replace(
            cluster_sim.CLUSTER_SCENARIOS["fleet-surge"], payload_pool=4
        ),
        "inputs_sha256": _sha([f"fleet-surge/pool4/{SIM_SEED}/{scale}".encode()]),
    }


def run_cluster(inputs: dict, checks: Checks) -> RunResult:
    t0 = perf_counter()
    report = cluster_sim.run_cluster_simulation(
        inputs["scenario"], inputs["seed"], scale=inputs["scale"]
    )
    wall = perf_counter() - t0
    result = _sim_result(
        report,
        wall,
        cluster_sim.format_cluster_scorecard(report),
        checks,
        "cluster_control",
    )
    result.facts["memo_hit_rate"] = report.cache_hits / max(
        1, report.cache_hits + report.cache_misses
    )
    return result


def trace_rows_cluster(summary: dict, span_seconds, facts: dict) -> Metrics:
    return {
        "cluster.codec_share": _codec_share(summary),
        "cluster.loop_us_per_req": (
            summary["cluster"]["self_s"] / facts["arrivals"] * 1e6
        ),
    }


def _codec_share(summary: dict) -> float:
    total = sum(entry["self_s"] for entry in summary.values())
    codecs = sum(
        entry["self_s"]
        for layer, entry in summary.items()
        if layer.startswith("codecs.")
    )
    return codecs / total


# ---------------------------------------------------------------------------
# kvstore_mixed
# ---------------------------------------------------------------------------

_KV_BLOCK = 16384
#: half the default memtable: the fifth flush, and with it the level-0
#: compaction, arrives after ~0.65 MB of writes instead of ~1.3 MB
_KV_MEMTABLE = 1 << 17
_REOPENS = 3


def _open_store(storage, **kwargs) -> KVStore:
    return KVStore.open(
        storage,
        codec=get_codec("zstd"),
        compression_level=1,
        block_size=_KV_BLOCK,
        memtable_bytes=_KV_MEMTABLE,
        **kwargs,
    )


def prepare_kvstore(seed: int, smoke: bool) -> dict:
    puts, gets = (300, 60) if smoke else (1950, 200)
    records = generate_kv_records(puts, seed=seed)
    rng = random.Random(seed)
    rng.shuffle(records)
    overwrites = [(k, v[::-1]) for k, v in records[: puts // 10]]
    deletes = [k for k, __ in records[puts // 10 : puts // 10 + puts // 20]]
    model: Dict[bytes, Optional[bytes]] = dict(records)
    model.update(overwrites)
    model.update((k, None) for k in deletes)
    absent = [b"svc7/shard999/absent/%012d" % i for i in range(gets // 10)]
    present = [records[rng.randrange(puts)][0] for __ in range(gets - len(absent))]
    get_keys = present + absent
    rng.shuffle(get_keys)
    # zipf-ish: rank r is drawn with weight 1/r, so a quarter-sized block
    # cache holds the hot blocks
    ranked = sorted(model)
    weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
    zipf_keys = rng.choices(ranked, weights=weights, k=gets)
    scans = []
    for __ in range(10 if smoke else 50):
        start = rng.randrange(len(ranked) - 20)
        scans.append((ranked[start], ranked[start + 20]))
    return {
        "seed": seed,
        "writes": records + overwrites + [(k, None) for k in deletes],
        "model": model,
        "get_keys": get_keys,
        "recheck_keys": get_keys[:10] + deletes[:5],
        "zipf_keys": zipf_keys,
        "scans": scans,
        "inputs_sha256": _sha(k + v for k, v in records),
    }


def run_kvstore(inputs: dict, checks: Checks) -> RunResult:
    """Samples: the open, every write op, the final flush, every get, the
    reopens."""
    model = inputs["model"]
    storage = SimStorage(inputs["seed"])
    samples: List[float] = []

    # phase 1: writes (puts, overwrites, deletes), then the final flush
    t0 = perf_counter()
    db = _open_store(storage)
    samples.append(perf_counter() - t0)
    user_bytes = 0
    for key, value in inputs["writes"]:
        t0 = perf_counter()
        if value is None:
            db.delete(key)
        else:
            db.put(key, value)
        samples.append(perf_counter() - t0)
        user_bytes += len(key) + (len(value) if value is not None else 0)
    t0 = perf_counter()
    db.flush()
    samples.append(perf_counter() - t0)

    # phase 2: uniform point reads, no block cache
    for key in inputs["get_keys"]:
        t0 = perf_counter()
        value = db.get(key)
        samples.append(perf_counter() - t0)
        checks.that(value == model.get(key), f"get {key!r}: differs from the model")
    stats = db.stats
    table_probes = db.bloom_skips + stats.blocks_decompressed

    # phase 3: recovery, reopening the same storage
    for __ in range(_REOPENS):
        t0 = perf_counter()
        reopened = _open_store(storage)
        samples.append(perf_counter() - t0)
        for key in inputs["recheck_keys"]:
            checks.that(
                reopened.get(key) == model.get(key),
                f"get {key!r} after reopen: differs from the model",
            )

    inputs["storage"] = storage
    return RunResult(
        samples,
        {
            "writes": len(inputs["writes"]),
            "gets": len(inputs["get_keys"]),
            "stored_ratio": stats.raw_bytes_written / stats.stored_bytes_written,
            "rows": {
                "services.kvstore.compactions": stats.compactions,
                "services.kvstore.write_amp": stats.raw_bytes_written / user_bytes,
                "services.kvstore.wal_bytes_per_user_byte": (
                    stats.wal_bytes_appended / user_bytes
                ),
                "services.kvstore.syncs_per_put": (
                    storage.stats.syncs / len(inputs["writes"])
                ),
                "services.kvstore.blocks_decoded_per_get": (
                    stats.blocks_decompressed / max(1, stats.reads)
                ),
                # share of table probes the bloom filters answered without
                # a block decode
                "services.kvstore.bloom_skip_rate": (
                    db.bloom_skips / max(1, table_probes)
                ),
            },
        },
        _sha(
            part
            for name in storage.list()
            for part in (name.encode(), storage.read(name))
        ),
    )


def summarise_kvstore(samples: List[float], facts: dict) -> Tuple[Metrics, Metrics]:
    writes, gets = facts["writes"], facts["gets"]
    # open + every write op + the final flush
    put_s = sum(samples[: writes + 2])
    get_latencies = samples[writes + 2 : writes + 2 + gets]
    recover_s = statistics.median(samples[writes + 2 + gets :])
    metrics = {
        "put_ops_s": writes / put_s,
        "get_p50_ms": statistics.median(get_latencies) * 1e3,
        "get_p95_ms": percentile(get_latencies, 95) * 1e3,
        "recover_s": recover_s,
        "stored_ratio": facts["stored_ratio"],
    }
    return metrics, dict(facts["rows"])


def probes_kvstore(inputs: dict, rows: Metrics) -> Metrics:
    """Phase 4: the working set that fits the block cache, and range scans."""
    model = inputs["model"]
    live_bytes = sum(len(k) + len(v) for k, v in model.items() if v is not None)
    db = _open_store(
        inputs["storage"], block_cache_bytes=max(_KV_BLOCK, live_bytes // 4)
    )
    latencies: List[float] = []
    for key in inputs["zipf_keys"]:
        t0 = perf_counter()
        value = db.get(key)
        latencies.append(perf_counter() - t0)
        if value != model.get(key):
            raise AssertionError(f"cached get {key!r}: differs from the model")
    scanned = 0
    t0 = perf_counter()
    for start, end in inputs["scans"]:
        for key, value in db.scan_range(start, end):
            if value != model.get(key):
                raise AssertionError(f"scan {key!r}: differs from the model")
            scanned += 1
    scan_s = perf_counter() - t0
    return {
        "services.kvstore.get_cached_p50_ms": statistics.median(latencies) * 1e3,
        "services.kvstore.blockcache_hit_rate": db.block_cache.stats.hit_rate,
        "services.kvstore.scan_keys_per_s": scanned / scan_s,
    }


def trace_rows_kvstore(summary: dict, span_seconds, facts: dict) -> Metrics:
    flush_s, __ = span_seconds("KVStore.flush")
    compact_s, __ = span_seconds("KVStore._compact_level")
    return {
        # compaction runs inside the flush that triggers it
        "services.kvstore.flush_s": flush_s - compact_s,
        "services.kvstore.compact_s": compact_s,
    }


# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "codec_roundtrip",
            "large files through seven codec configs both ways: matchfinders,"
            " entropy and checksum do nearly all the work, so a kernel"
            " speedup must show here",
            prepare_roundtrip,
            run_roundtrip,
            summarise_roundtrip,
            probes_roundtrip,
        ),
        Workload(
            "codec_small",
            "~280 B cache items one call each, with and without an 8 KiB"
            " dictionary: per-call set-up dominates and the match loops"
            " barely run",
            prepare_small,
            run_small,
            summarise_small,
            probes_small,
        ),
        Workload(
            "serve_overload",
            "the serve-sim entry point under overload: mixed-level codec"
            " compress is most of the wall, ladder build and gateway the rest",
            prepare_serve,
            run_serve,
            summarise_sim,
            None,
            trace_rows_serve,
        ),
        Workload(
            "cluster_control",
            "cluster-sim with a 99.8% codec-cache hit rate: the codec-bypass"
            " workload, where event loop, gateway and obs are the majority",
            prepare_cluster,
            run_cluster,
            summarise_sim,
            None,
            trace_rows_cluster,
        ),
        Workload(
            "kvstore_mixed",
            "durable LSM: WAL+flush+compaction compress on writes, one block"
            " decompress per get, SST reload on recovery",
            prepare_kvstore,
            run_kvstore,
            summarise_kvstore,
            probes_kvstore,
            trace_rows_kvstore,
        ),
    )
}

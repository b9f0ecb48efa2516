"""``repro chaos``: the service stack under a named fault plan.

Runs eight end-to-end scenarios -- RPC, cache, kvstore, far memory,
managed compression, the serving gateway, durable-kvstore crash
recovery, and a hash-ring cluster losing nodes -- with a
:class:`~repro.faults.FaultInjector` perturbing each one, and reports a
survival scorecard: per scenario, how many operations succeeded untouched
(``ok``), how many were disturbed by a fault but saved by the resilience
layer (``recovered``), and how many were abandoned (``failed``). No
operation may escape as an unhandled exception; that is the contract the
scorecard certifies.

The gateway and cluster rows are fixed scenarios of the two simulators
(``run_simulation`` / ``run_cluster_simulation`` with ``faults=``): one
operation is one arrival, its outcome is read off its
:class:`~repro.serving.queue.ServingRequest` as it settles (the run's
``on_settled`` sink), and the run is held to the
simulators' request-conservation check like every other simulated run.

Everything is deterministic: payloads are fixed functions of the loop
index, fault decisions come from the injector's string-seeded RNGs, and
every latency is *modeled* time (the machine model, retry backoff math,
and :class:`~repro.resilience.clock.SimClock`), never wall-clock. The same
``(plan, seed, ops)`` therefore renders a byte-identical scorecard, which
is what lets CI diff two runs.

Recovery latency, observed into one log-bucketed histogram
(:class:`~repro.obs.metrics.Histogram`, the PR-1 machinery) under the
scenario's own name, is the modeled time the recovery itself cost:

- ``rpc``      -- end-to-end seconds of the delivered message, including
                  every failed attempt and its backoff;
- ``cache``    -- modeled re-compress time of the re-installed item plus
                  a modeled re-fetch from the backing store over the wire;
- ``kvstore``  -- block decode seconds of the re-read plus the modeled
                  re-fetch;
- ``farmem``   -- modeled decompress-fault seconds spent on the page,
                  plus the re-fetch of its source data;
- ``managed``  -- the modeled re-fetch of the blob's source data.
- ``serving``  -- the modeled service seconds of a request the gateway
                  saved by degrading it down the ladder or by falling
                  back to raw passthrough when its codec faulted.
- ``kvstore-crash`` -- the modeled recovery open (manifest + SST reload
                  + WAL replay) plus the re-fetch of any acked write a
                  lying fsync lost to the crash.
- ``cluster-node-loss`` -- the modeled service seconds of a request
                  served after its node died and it was re-homed over the
                  ring (or degraded / raw-fallback, as in ``serving``).

The modeled re-fetch uses the default RPC link shape (10 Gb/s, 50 us
propagation): recovery means going back to the source of truth, and that
trip is the dominant, honest cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.cluster.autoscaler import AutoscalerConfig
from repro.cluster.node import NodeConfig
from repro.cluster.simulate import ClusterScenario, run_cluster_simulation
from repro.codecs.base import get_codec
from repro.faults.crash import CrashInjector, SimulatedCrash
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.wrappers import FaultyChannel, FaultyCodec, scrub_cache, scrub_sstable
from repro.obs.metrics import Histogram
from repro.obs.slo import (
    PAGE,
    WARN,
    AlertSummary,
    AlertTransition,
    BurnRule,
    EventRateSLO,
    SLOEvaluator,
    format_states,
    format_transition,
    metric_total,
)
from repro.obs.timeseries import TimeSeriesRecorder, WindowSnapshot
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import SimClock
from repro.resilience.retry import RetryPolicy
from repro.services.cache.client import CacheClient
from repro.services.cache.server import CacheServer
from repro.services.farmemory import PAGE_SIZE, FarMemoryPool, PageLostError
from repro.services.kvstore.db import CRASH_SITES, KVStore
from repro.services.kvstore.storage import SimStorage
from repro.services.managed import DictionaryRetiredError, ManagedCompression
from repro.services.rpc import Channel, RpcExhaustedError
from repro.serving.queue import ServingRequest
from repro.serving.simulate import ServingScenario, run_simulation
from repro.serving.workload import tenants_from_fleet
from repro.sim import TrafficReport

#: modeled cost of one re-fetch from the source of truth (default link)
_REFETCH_BANDWIDTH = 1.25e9  # bytes/second (10 Gb/s)
_REFETCH_PROPAGATION = 50e-6


def _refetch_seconds(size: int) -> float:
    return _REFETCH_PROPAGATION + size / _REFETCH_BANDWIDTH


@dataclass
class ScenarioResult:
    """One scenario's survival line."""

    name: str
    #: deterministic scenario-specific extras, insertion-ordered
    notes: Dict[str, int] = field(default_factory=dict)
    #: per-operation outcome sequence ("ok"/"recovered"/"failed"), in the
    #: order operations resolved — the stream the alert timeline windows,
    #: and the one place outcomes are counted
    outcomes: List[str] = field(default_factory=list)

    @property
    def operations(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> int:
        return self.outcomes.count("ok")

    @property
    def recovered(self) -> int:
        return self.outcomes.count("recovered")

    @property
    def failed(self) -> int:
        return self.outcomes.count("failed")


@dataclass(frozen=True)
class ChaosWindow:
    """One op-index window of the chaos run's outcome stream."""

    index: int
    start_op: int
    end_op: int
    ok: int
    recovered: int
    failed: int
    #: alert state per SLO after this window's evaluation
    states: Dict[str, str]
    transitions: Tuple[AlertTransition, ...]


@dataclass
class ChaosTimeline:
    """The chaos run's alert timeline, windowed over operation index.

    The recorder never interprets its time unit, so the chaos plane
    drives it with the global operation counter: window N covers ops
    ``[N * window_ops, (N + 1) * window_ops)`` across the scenario
    sequence. Deterministic per ``(plan, seed, ops)`` like everything
    else in the scorecard.
    """

    window_ops: int
    windows: List[ChaosWindow]
    alerts: AlertSummary


@dataclass
class ChaosReport:
    """The full run: per-scenario lines plus fleet-wide fault accounting."""

    plan: str
    seed: int
    scenarios: List[ScenarioResult]
    #: modeled recovery latency, labeled by scenario (label ``source``)
    recovery: Histogram
    #: every (site, kind) fired, with counts, sorted
    fault_breakdown: List[Tuple[str, str, int]]
    #: windowed alert timeline over the outcome stream
    timeline: ChaosTimeline

    @property
    def operations(self) -> int:
        return sum(s.operations for s in self.scenarios)

    @property
    def ok(self) -> int:
        return sum(s.ok for s in self.scenarios)

    @property
    def recovered(self) -> int:
        return sum(s.recovered for s in self.scenarios)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.scenarios)

    @property
    def faults_injected(self) -> int:
        return sum(count for __, __, count in self.fault_breakdown)


# -- scenarios ----------------------------------------------------------------


class _Tally:
    """One scenario's outcome stream, in the order operations resolve.

    A recovery's modeled seconds are observed under the scenario's own
    name, so the scorecard's recovery rows are its scenario rows by
    construction.
    """

    def __init__(self, name: str, recovery: Histogram) -> None:
        self.name = name
        self.recovery = recovery
        self.outcomes: List[str] = []

    def ok(self) -> None:
        self.outcomes.append("ok")

    def recovered(self, seconds: float) -> None:
        self.outcomes.append("recovered")
        self.recovery.observe(seconds, source=self.name)
        self.recovery.observe(seconds, source="all")

    def failed(self) -> None:
        self.outcomes.append("failed")

    def settled(self, request: ServingRequest) -> None:
        """A simulated request as it settles: ``recovered`` when it was
        degraded, raw-fallback or re-homed (its modeled service seconds
        the recovery), ``ok`` otherwise."""
        if request.degraded or request.raw_fallback or request.rehomed:
            self.recovered(request.service_seconds)
        else:
            self.ok()


def _run_rpc(
    injector: FaultInjector, seed: int, count: int, tally: _Tally
) -> Dict[str, int]:
    """Messages over a faulty wire; retry + backoff is the recovery."""
    channel = Channel(
        codec=get_codec("zstd"),
        level=1,
        timeout_seconds=0.05,
        retry=RetryPolicy(
            max_attempts=4, base_seconds=1e-3, cap_seconds=0.02, seed=seed
        ),
    )
    faulty = FaultyChannel(channel, injector)
    for i in range(count):
        payload = f"rpc message {i:05d} compressible body ".encode() * 48
        before = channel.stats.recovered_messages
        try:
            received, elapsed = faulty.send(payload)
        except RpcExhaustedError:
            tally.failed()
            continue
        if received != payload:
            tally.failed()  # silent corruption slipped the validator
        elif channel.stats.recovered_messages > before:
            tally.recovered(elapsed)
        else:
            tally.ok()
    return {
        "retries": channel.stats.retries,
        "drops": channel.stats.drops,
        "timeouts": channel.stats.timeouts,
        "corrupt_payloads": channel.stats.corrupt_payloads,
    }


def _run_cache(
    injector: FaultInjector, seed: int, count: int, tally: _Tally
) -> Dict[str, int]:
    """Set/scrub/get; quarantine-and-refill from source is the recovery."""
    clock = SimClock()
    breaker = CircuitBreaker(
        "chaos-cache-codec",
        failure_threshold=3,
        cooldown_seconds=1e-4,
        clock=clock,
    )
    codec = FaultyCodec(get_codec("zstd"), injector, clock=clock)
    server = CacheServer(
        codec=codec, level=3, min_compress_size=32, breaker=breaker
    )
    client = CacheClient(server)
    source: Dict[bytes, bytes] = {}
    for i in range(count):
        key = f"key-{i:05d}".encode()
        value = f"cache item {i:05d} with shared structure ".encode() * 32
        source[key] = value
        server.set(key, "chaos-type", value)
    scrub_cache(server, injector)
    for key, value in source.items():
        got = client.get(key)
        if got == value:
            tally.ok()
            continue
        # a miss or a wrong value: re-fetch from the source of truth,
        # re-install, and serve again -- the cold-key path, by design
        compress_before = server.stats.compress_seconds
        server.set(key, "chaos-type", value)
        got = client.get(key)
        if got == value:
            tally.recovered(
                server.stats.compress_seconds
                - compress_before
                + _refetch_seconds(len(value))
            )
        else:
            tally.failed()
    return {
        "corrupt_evictions": server.stats.corrupt_evictions,
        "compress_failures": server.stats.compress_failures,
        "raw_fallbacks": server.stats.raw_fallbacks,
        "decode_failures": client.stats.decode_failures,
    }


def _run_kvstore(
    injector: FaultInjector, seed: int, count: int, tally: _Tally
) -> Dict[str, int]:
    """Put/scrub/get; LSM redundancy and re-put are the recovery."""
    store = KVStore(
        codec=get_codec("zstd"),
        compression_level=1,
        block_size=2048,
        memtable_bytes=4096,
    )
    source: Dict[bytes, bytes] = {}
    for i in range(count):
        key = f"user:{i:06d}".encode()
        value = f"profile row {i:06d} with shared shape ".encode() * 8
        source[key] = value
        store.put(key, value)
    store.flush()
    damaged_blocks = 0
    for level_tables in store.levels:
        for table in level_tables:
            damaged_blocks += len(scrub_sstable(store.storage, table, injector))
    for key, value in source.items():
        got = store.get(key)
        if got == value:
            tally.ok()
            continue
        # the key's block rotted in every level that held it: re-fetch
        # from the source of truth and write it back
        store.put(key, value)
        store.flush()
        got = store.get(key)
        if got == value:
            tally.recovered(
                store.stats.last_read_decode_seconds + _refetch_seconds(len(value))
            )
        else:
            tally.failed()
    return {
        "damaged_blocks": damaged_blocks,
        "quarantined_blocks": store.quarantined_blocks,
        "sst_count": store.sst_count,
    }


def _run_farmemory(
    injector: FaultInjector, seed: int, count: int, tally: _Tally
) -> Dict[str, int]:
    """Cold pages through a faulty codec; retry/rebuild is the recovery."""
    clock = SimClock()
    breaker = CircuitBreaker(
        "chaos-farmem-codec",
        failure_threshold=3,
        cooldown_seconds=2.0,
        clock=clock,
    )
    codec = FaultyCodec(get_codec("zstd"), injector, clock=clock)
    pool = FarMemoryPool(
        codec=codec, cold_age_ticks=1, breaker=breaker, tick_seconds=1.0
    )
    source: Dict[int, bytes] = {}
    for i in range(count):
        data = f"far memory page {i:04d} cold contents ".encode() * 128
        pool.write(i, data)
        source[i] = data[:PAGE_SIZE].ljust(PAGE_SIZE, b"\x00")
    for __ in range(4):
        pool.tick()
    for i in range(count):
        retries_before = pool.stats.decode_retries
        fault_before = pool.stats.fault_seconds_total
        try:
            got = pool.read(i)
        except PageLostError:
            # the compressed image is gone: rebuild from the source of truth
            pool.write(i, source[i])
            if pool.read(i) == source[i]:
                tally.recovered(_refetch_seconds(PAGE_SIZE))
            else:
                tally.failed()
            continue
        if got != source[i]:
            tally.failed()
        elif pool.stats.decode_retries > retries_before:
            # the transient-retry inside read() saved the fault
            tally.recovered(pool.stats.fault_seconds_total - fault_before)
        else:
            tally.ok()
    return {
        "pages_compressed": pool.stats.pages_compressed,
        "pages_lost": pool.stats.pages_lost,
        "compression_skips": pool.stats.compression_skips,
        "compress_failures": pool.stats.compress_failures,
    }


def _run_managed(
    injector: FaultInjector, seed: int, count: int, tally: _Tally
) -> Dict[str, int]:
    """Dictionary churn and loss; the retired_handler is the recovery."""
    source: Dict[int, bytes] = {}
    current: Dict[str, int] = {"blob": -1}

    def rebuild(error: DictionaryRetiredError) -> bytes:
        # the stateless caller re-fetches the blob's plaintext from its
        # own source of truth; the service only routes the request
        return source[current["blob"]]

    service = ManagedCompression(
        codec=get_codec("zstd"), sample_every=1, retired_handler=rebuild
    )
    service.register_use_case(
        "chaos-logs",
        level=3,
        dictionary_size=4096,
        retrain_interval=8,
        max_versions=1,
    )
    blobs = []
    for i in range(count):
        data = f"log line {i:04d}: request served from cache ".encode() * 8
        source[i] = data
        blobs.append(service.compress("chaos-logs", data))
        if injector.should("managed.dictionary", "dict_loss"):
            versions = service.available_versions("chaos-logs")
            if versions:
                service.drop_dictionary("chaos-logs", versions[0])
    stats = service.stats("chaos-logs")
    for i, blob in enumerate(blobs):
        current["blob"] = i
        recoveries_before = stats.recoveries
        try:
            data = service.decompress(blob)
        except DictionaryRetiredError:
            tally.failed()
            continue
        if data != source[i]:
            tally.failed()
        elif stats.recoveries > recoveries_before:
            tally.recovered(_refetch_seconds(len(source[i])))
        else:
            tally.ok()
    return {
        "retrains": stats.retrains,
        "retired_blobs": stats.retired_blobs,
        "dictionary_versions": len(service.available_versions("chaos-logs")),
    }


#: the ``serving`` row: arrivals outrun one worker, so queue pressure
#: walks the ladder, while lanes and tokens never bind and deadlines are
#: infinite, so nothing sheds or expires
_SERVING = ServingScenario(
    name="chaos-serving",
    description="an overrun gateway whose codecs fault",
    rate_rps=4000.0,
    duration_seconds=0.0125,
    node=NodeConfig(workers=1, capacity=64, token_rate=1e9, token_burst=1e9),
    categories=("Cache", "Web", "Ads"),
)

#: the ``cluster-node-loss`` row: a four-node ring with the autoscaler off,
#: whose tenants' deadlines outlast any queue at this load
_CLUSTER = ClusterScenario(
    name="chaos-cluster",
    description="a small ring losing whole nodes",
    rate_rps=480.0,
    duration_seconds=0.1,
    initial_nodes=4,
    vnodes=32,
    node=NodeConfig(
        capacity=256,
        token_rate=1e9,
        token_burst=1e9,
        target_latency=10.0,
        service_scale=4000.0,
    ),
    autoscale=False,
    autoscaler=AutoscalerConfig(min_nodes=2),
    categories=("Ads", "Data Warehouse"),
    payload_median_cap=1024,
)


def _tally_failed(report: TrafficReport, tally: _Tally) -> None:
    """After a simulated run: each request it shed, throttled or expired is
    ``failed``. Settled requests were tallied as they settled
    (:meth:`_Tally.settled`), so the outcomes stay in that order."""
    for __ in range(report.shed + report.throttled + report.expired):
        tally.failed()


def _run_serving(
    injector: FaultInjector, seed: int, scale: float, tally: _Tally
) -> Dict[str, int]:
    """An overrun gateway with faulty codecs on the serving simulator; the
    ladder and the raw passthrough are the recovery."""
    tenants = [
        replace(tenant, deadline_seconds=math.inf)
        for tenant in tenants_from_fleet(_SERVING.categories, max_median_bytes=1024)
    ]
    report = run_simulation(
        _SERVING,
        seed=seed,
        scale=scale,
        tenants=tenants,
        faults=injector,
        on_settled=tally.settled,
    )
    _tally_failed(report, tally)
    return {
        "degraded": report.degraded,
        "raw_fallbacks": report.raw_fallbacks,
        "shed": report.shed,
        "expired": report.expired,
    }


def _run_cluster(
    injector: FaultInjector, seed: int, scale: float, tally: _Tally
) -> Dict[str, int]:
    """A small ring on the cluster simulator losing whole nodes: each
    arrival is one ``cluster.node`` opportunity, and a lost node's queue
    re-homes over the ring. A re-homed, degraded or raw-fallback serve is
    ``recovered``; node loss must never lose an admitted request, which
    the simulator's conservation check enforces."""
    rehomed = 0

    def on_settled(request: ServingRequest) -> None:
        nonlocal rehomed
        rehomed += request.rehomed
        tally.settled(request)

    report = run_cluster_simulation(
        _CLUSTER, seed=seed, scale=scale, faults=injector, on_settled=on_settled
    )
    _tally_failed(report, tally)
    return {
        "node_losses": sum(e.action == "loss" for e in report.scale_events),
        "rehomed": rehomed,
        "ring_nodes": report.nodes_final_active,
    }


def _run_kvstore_crash(
    injector: FaultInjector, seed: int, count: int, tally: _Tally
) -> Dict[str, int]:
    """Durable LSM writes under seeded crashes and lying fsyncs.

    Each op is one acked write. The plan's ``crash`` spec decides, per
    op, whether to arm a crash at a randomly chosen durable-path site
    (:data:`~repro.services.kvstore.db.CRASH_SITES`); the armed
    point fires whenever that site is next crossed — possibly ops later,
    mid-flush or mid-compaction. On a crash the storage tears its
    unsynced tails, the store reopens (manifest + SST reload + WAL
    replay), the interrupted write is retried, and any *acked* write a
    dropped sync lost is re-fetched from the source of truth — each such
    op flips to ``recovered``. A write that can't be read back correctly
    after the final audit is a ``failed`` op; the recovery invariant says
    there must be none.
    """
    crash_injector = CrashInjector()
    storage = SimStorage(
        seed=seed, fault_injector=injector, crash_injector=crash_injector
    )
    kwargs = dict(
        block_size=2048, memtable_bytes=4096, wal_segment_bytes=1 << 12
    )
    store = KVStore(storage=storage, **kwargs)
    source: Dict[bytes, bytes] = {}
    op_index: Dict[bytes, int] = {}
    outcomes = tally.outcomes
    crashes = 0
    torn_tails = 0
    records_replayed = 0
    filters_dropped = 0
    for i in range(count):
        # a hot keyspace, so crashes interrupt overwrites as well as inserts
        key = f"durable:{i % max(1, count // 2):05d}".encode()
        value = f"wal record {i:05d} crash-recoverable payload ".encode() * 4
        for spec, rng in injector.decide("kvstore.durable"):
            if spec.kind == "crash":
                crash_injector.arm_point(rng.choice(CRASH_SITES))
        try:
            store.put(key, value)
        except SimulatedCrash:
            crashes += 1
            crash_injector.disarm()
            storage.crash()
            store = KVStore(storage=storage, **kwargs)
            report = store.last_recovery
            torn_tails += report.torn_tail_truncations
            records_replayed += report.wal_records_replayed
            filters_dropped += report.filters_dropped
            seconds = report.modeled_seconds
            # acked writes a lying fsync lost die with the torn tail:
            # re-fetch each from the source of truth and write it back
            for lost_key, lost_value in source.items():
                if store.get(lost_key) != lost_value:
                    store.put(lost_key, lost_value)
                    seconds += _refetch_seconds(len(lost_value))
                    j = op_index[lost_key]
                    if outcomes[j] == "ok":
                        outcomes[j] = "recovered"
            # retry the interrupted write
            store.put(key, value)
            tally.recovered(seconds + _refetch_seconds(len(value)))
        else:
            tally.ok()
        source[key] = value
        op_index[key] = i
    # final audit: every write must read back with its latest value
    for key, value in source.items():
        if store.get(key) != value:
            outcomes[op_index[key]] = "failed"
    return {
        "crashes": crashes,
        "torn_tails": torn_tails,
        "wal_records_replayed": records_replayed,
        "dropped_syncs": storage.stats.dropped_syncs,
        "sst_count": store.sst_count,
        # shown, like every note, only when non-zero
        "filters_dropped": filters_dropped,
    }


# -- the alert timeline -------------------------------------------------------

#: operations per timeline window
CHAOS_WINDOW_OPS = 25
#: per-window outcome counter: labels scenario, outcome
CHAOS_OPS_METRIC = "chaos_ops_total"
#: burn rules scaled to op-index windows (a chaos run is ~400 ops, so
#: the long views stay meaningfully shorter than the run)
CHAOS_RULES = (
    BurnRule(PAGE, long_windows=4, short_windows=2, threshold=5.0),
    BurnRule(WARN, long_windows=8, short_windows=2, threshold=1.5),
)


def chaos_slos() -> List[EventRateSLO]:
    """The chaos plane's objectives over the outcome stream.

    ``failure_rate`` is the hard objective (operations abandoned);
    ``recovery_rate`` alerts when the resilience layer is doing heavy
    lifting — the fleet survived, but only because retries, rebuilds,
    and ladders kept saving it.
    """
    total = lambda reg: metric_total(reg, CHAOS_OPS_METRIC)  # noqa: E731
    return [
        EventRateSLO(
            "failure_rate",
            bad=lambda reg: metric_total(reg, CHAOS_OPS_METRIC, outcome="failed"),
            total=total,
            budget=0.02,
            description="operations abandoned outright",
        ),
        EventRateSLO(
            "recovery_rate",
            bad=lambda reg: metric_total(
                reg, CHAOS_OPS_METRIC, outcome="recovered"
            ),
            total=total,
            budget=0.05,
            description="operations saved only by the resilience layer",
        ),
    ]


def build_chaos_timeline(scenarios: List[ScenarioResult]) -> ChaosTimeline:
    """Window the concatenated outcome streams and evaluate the SLOs."""
    recorder = TimeSeriesRecorder(float(CHAOS_WINDOW_OPS))
    evaluator = SLOEvaluator(chaos_slos(), rules=CHAOS_RULES)
    windows: List[ChaosWindow] = []

    def close(snapshot: WindowSnapshot) -> None:
        edges = evaluator.on_window(snapshot)
        reg = snapshot.registry
        windows.append(
            ChaosWindow(
                index=snapshot.index,
                start_op=int(snapshot.start),
                end_op=int(snapshot.end),
                ok=int(metric_total(reg, CHAOS_OPS_METRIC, outcome="ok")),
                recovered=int(
                    metric_total(reg, CHAOS_OPS_METRIC, outcome="recovered")
                ),
                failed=int(metric_total(reg, CHAOS_OPS_METRIC, outcome="failed")),
                states=evaluator.states(),
                transitions=tuple(edges),
            )
        )

    op = 0
    for scenario in scenarios:
        for outcome in scenario.outcomes:
            if op >= recorder.next_edge:
                for snapshot in recorder.advance(float(op)):
                    close(snapshot)
            recorder.registry().counter(CHAOS_OPS_METRIC).inc(
                1, scenario=scenario.name, outcome=outcome
            )
            op += 1
    # ops are consecutive, so the in-progress window holds every op not
    # yet closed: a full last window flushes with the bounds an advance
    # would have given it
    tail = recorder.flush()
    if tail is not None:
        close(tail)
    return ChaosTimeline(CHAOS_WINDOW_OPS, windows, evaluator.finish(float(op)))


# -- the runner ---------------------------------------------------------------

#: scenario name -> (runner, operations at ``ops=1.0``), in run order; the
#: name is the scorecard row, the timeline label and the recovery source.
#: A simulator row (operations None) takes ``ops`` as its scale and
#: resolves one operation per arrival.
_SCENARIOS = {
    "rpc": (_run_rpc, 60),
    "cache": (_run_cache, 80),
    "kvstore": (_run_kvstore, 120),
    "farmem": (_run_farmemory, 40),
    "managed": (_run_managed, 60),
    "serving": (_run_serving, None),
    "kvstore-crash": (_run_kvstore_crash, 40),
    "cluster-node-loss": (_run_cluster, None),
}


def run_chaos(plan: str = "standard", seed: int = 7, ops: float = 1.0) -> ChaosReport:
    """Run every scenario under ``plan``; returns the full report.

    ``ops`` scales each scenario's operation count (0.25 = quick smoke).
    One injector spans the run, so its per-spec RNG streams -- and with
    them the whole scorecard -- are a pure function of ``(plan, seed,
    ops)``.
    """
    fault_plan = FaultPlan.named(plan)
    injector = FaultInjector(fault_plan, seed=seed)
    recovery = Histogram(
        "chaos_recovery_seconds", "modeled latency of each recovery"
    )
    scenarios = []
    for name, (runner, base) in _SCENARIOS.items():
        size = ops if base is None else max(1, round(base * ops))
        tally = _Tally(name, recovery)
        notes = runner(injector, seed, size, tally)
        scenarios.append(ScenarioResult(name, notes, tally.outcomes))
    breakdown = sorted(
        (site, kind, count) for (site, kind), count in injector.fired.items()
    )
    return ChaosReport(
        fault_plan.name,
        seed,
        scenarios,
        recovery,
        breakdown,
        build_chaos_timeline(scenarios),
    )


def format_scorecard(report: ChaosReport) -> str:
    """Render the report; byte-identical for identical reports."""
    width = max([len("scenario")] + [len(s.name) for s in report.scenarios])
    lines = [
        f"chaos scorecard -- plan '{report.plan}', seed {report.seed}",
        "",
        f"{'scenario':{width}s} {'ops':>5s} {'ok':>5s} {'recovered':>9s} "
        f"{'failed':>6s}",
    ]
    for scenario in report.scenarios:
        lines.append(
            f"{scenario.name:{width}s} {scenario.operations:5d} {scenario.ok:5d} "
            f"{scenario.recovered:9d} {scenario.failed:6d}"
        )
    lines.append(
        f"{'total':{width}s} {report.operations:5d} {report.ok:5d} "
        f"{report.recovered:9d} {report.failed:6d}"
    )
    survived = report.ok + report.recovered
    rate = survived / report.operations if report.operations else 1.0
    lines.append("")
    lines.append(
        f"survived {survived}/{report.operations} operations ({rate * 100:.1f}%), "
        f"{report.faults_injected} faults injected"
    )
    if report.fault_breakdown:
        lines.append("faults by site:")
        for site, kind, count in report.fault_breakdown:
            lines.append(f"  {site} {kind}: {count}")
    if report.recovery.count(source="all"):
        lines.append("recovery latency (modeled):")
        for source in ["all"] + sorted(
            s.name for s in report.scenarios if report.recovery.count(source=s.name)
        ):
            lines.append(
                f"  {source:{width}s} n={report.recovery.count(source=source):<4d} "
                f"p50={report.recovery.p50(source=source) * 1e3:8.3f} ms  "
                f"p90={report.recovery.p90(source=source) * 1e3:8.3f} ms  "
                f"p99={report.recovery.p99(source=source) * 1e3:8.3f} ms"
            )
    notes = []
    for scenario in report.scenarios:
        interesting = {k: v for k, v in scenario.notes.items() if v}
        if interesting:
            rendered = ", ".join(f"{k}={v}" for k, v in interesting.items())
            notes.append(f"  {scenario.name}: {rendered}")
    if notes:
        lines.append("detail:")
        lines.extend(notes)
    timeline, alerts = report.timeline, report.timeline.alerts
    lines.append(
        f"alert timeline ({timeline.window_ops}-op windows, "
        f"{len(timeline.windows)} windows):"
    )
    if alerts.transitions:
        for t in alerts.transitions:
            lines.append("  " + format_transition(t, f"op {t.at:g}"))
    else:
        lines.append("  (no alerts fired)")
    lines.append(
        f"  final states: {format_states(alerts.final_states)}; "
        f"worst {alerts.worst_state()}"
    )
    return "\n".join(lines)

"""What the control plane costs per request, as counts, and that the
cheaper paths compute what the ones they replaced did.

The serving / cluster telemetry does work in proportion to what happens
(windows that close, label sets that exist, payloads that are new), not
to ``events x nodes``. A wall-clock assertion could not hold that in
tier-1, but these counts repeat exactly per ``(scenario, seed, scale)``:
one instrumented ``fleet-surge`` run, counting wrappers on the module
globals the hot paths look up at call time, plus ``sys.setprofile`` call
events inside the gateway's ``submit`` / ``serve_batch``. Window telemetry is one append
per event and one labelled write per label set and closed window
(``serving.slos.fold_window_records``), which the label-key, fold and
window-hook counts hold.

The same run checks the shared SLO lookback merge against the single-SLO
entry it replaced in the evaluator (``slo.burn_rate(windows[-n:])``, with
``==``), and a second run, whose control ticks fall inside windows,
checks the edge-driven fleet fold against ``merge_shard_windows`` over
the finished per-node series.
"""

from __future__ import annotations

import collections
import dataclasses
import sys

import pytest

from repro.chaos import ScenarioResult, build_chaos_timeline
from repro.cluster import simulate as cluster_sim
from repro.obs import metrics as metrics_module
from repro.obs import slo as slo_module
from repro.obs.export import registry_snapshot
from repro.obs.rollup import merge_shard_windows
from repro.obs.slo import SLOEvaluator
from repro.obs.timeseries import TimeSeriesRecorder
from repro.perfmodel.machine import MachineModel
from repro.serving import gateway as gateway_module
from repro.serving import slos as slos_module

SEED, SCALE = 7, 0.25


def _scenario(**changes):
    return dataclasses.replace(
        cluster_sim.CLUSTER_SCENARIOS["fleet-surge"], payload_pool=4, **changes
    )


class _Observed:
    """Counts and captures of one instrumented run."""

    def __init__(self) -> None:
        #: calls per counted callable, by name
        self.calls = collections.Counter()
        #: Python-level calls made inside each gateway entry point
        self.gateway_calls = collections.Counter()
        #: ``compress_seconds`` calls made while the ladder was measured
        self.ladder_compress_seconds_calls = 0
        #: every canonical key built, in order
        self.keys_built = []
        #: ``merge_windows`` calls inside each ``on_window``
        self.merges_per_close = []
        #: burns that differed from a direct ``burn_rate`` call
        self.burn_mismatches = []
        self.burns_checked = 0
        self.nodes = []
        self.fleet_windows = None
        self.report = None


def _profiled(method, name: str, seen: _Observed):
    """``method`` counting its Python-level calls (``sys.setprofile`` call
    events) into ``seen.gateway_calls[name]``, itself included. Nothing
    below ``_compress_task`` is counted: a codec-cache miss's compression
    is the kernels' cost, pinned by their own count tests."""
    compress_task = gateway_module._compress_task.__code__

    def counted(*args, **kwargs):
        #: > 0 while inside a ``_compress_task`` call, its frame depth
        inside_codec = 0

        def profile(frame, event, arg):
            nonlocal inside_codec
            if event == "call":
                if inside_codec:
                    inside_codec += 1
                else:
                    seen.gateway_calls[name] += 1
                    inside_codec = 1 if frame.f_code is compress_task else 0
            elif event == "return" and inside_codec:
                inside_codec -= 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return method(*args, **kwargs)
        finally:
            sys.setprofile(previous)

    return counted


def _observe(scenario) -> _Observed:
    seen = _Observed()

    with pytest.MonkeyPatch.context() as patch:

        def count_calls(owner, attr, name=None):
            original = vars(owner)[attr]
            name = name or attr

            def wrapper(*args, **kwargs):
                seen.calls[name] += 1
                return original(*args, **kwargs)

            patch.setattr(owner, attr, wrapper)

        count_calls(TimeSeriesRecorder, "advance")
        count_calls(MachineModel, "compress_seconds")
        count_calls(metrics_module, "label_key")
        count_calls(slo_module, "merge_windows")
        count_calls(cluster_sim, "merge_windows", "cluster_merge_windows")
        count_calls(slos_module, "fold_window_records")
        # the window hooks, at the import sites the wall tracer patches
        count_calls(gateway_module, "record_window_verdict")
        count_calls(gateway_module, "record_window_served")
        count_calls(cluster_sim, "record_window_completion")
        for attr in ("submit", "serve_batch"):
            patch.setattr(
                gateway_module.CompressionGateway,
                attr,
                _profiled(vars(gateway_module.CompressionGateway)[attr], attr, seen),
            )

        patch.setattr(metrics_module, "_CANONICAL", {})
        build_key = metrics_module._canonical
        patch.setattr(
            metrics_module,
            "_canonical",
            lambda labels: seen.keys_built.append(build_key(labels))
            or seen.keys_built[-1],
        )

        traffic = cluster_sim.scenario_traffic

        def traffic_then_mark(*args, **kwargs):
            out = traffic(*args, **kwargs)
            seen.ladder_compress_seconds_calls = seen.calls["compress_seconds"]
            return out

        patch.setattr(cluster_sim, "scenario_traffic", traffic_then_mark)

        on_window = SLOEvaluator.on_window

        def on_window_checked(self, snapshot):
            before = seen.calls["merge_windows"]
            edges = on_window(self, snapshot)
            seen.merges_per_close.append(seen.calls["merge_windows"] - before)
            windows, at = self.windows, snapshot.end
            seen.fleet_windows = windows
            for slo in self.slos:
                burns = self.last_burns[slo.name]
                for rule in self.rules:
                    key = f"{rule.severity}:{rule.long_windows}w/{rule.short_windows}w"
                    if key not in burns:
                        continue  # a more severe rule fired first
                    direct = slo.burn_rate(windows[-rule.long_windows:])
                    seen.burns_checked += 1
                    if burns[key] != direct:
                        seen.burn_mismatches.append((at, slo.name, key, burns[key], direct))
            return edges

        patch.setattr(SLOEvaluator, "on_window", on_window_checked)

        class RememberedNode(cluster_sim.ClusterNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.nodes.append(self)

        patch.setattr(cluster_sim, "ClusterNode", RememberedNode)

        seen.report = cluster_sim.run_cluster_simulation(scenario, SEED, scale=SCALE)
    return seen


@pytest.fixture(scope="module")
def surge() -> _Observed:
    return _observe(_scenario())


class TestCounts:
    def test_the_run_is_the_one_the_bounds_are_about(self, surge):
        report = surge.report
        assert report.arrivals > 1000 and report.served > 1000
        assert len(surge.nodes) == len(report.shards) > report.nodes_initial
        assert report.fleet_windows > 8

    def test_windows_advance_per_window_not_per_event(self, surge):
        # per node: one sweep per fleet window at most, the first event's
        # sweep that reads the edge, and the advance at spawn
        nodes, windows = len(surge.nodes), surge.report.fleet_windows
        assert 0 < surge.calls["advance"] <= nodes * (windows + 2)
        assert surge.calls["advance"] < surge.report.arrivals

    def test_modeled_seconds_are_computed_once_per_node_and_payload(self, surge):
        report = surge.report
        in_gateways = (
            surge.calls["compress_seconds"] - surge.ladder_compress_seconds_calls
        )
        # cache_misses is the number of distinct (algorithm, level, payload)
        assert 0 < in_gateways <= len(surge.nodes) * report.cache_misses
        assert in_gateways < report.served // 4

    def test_each_lookback_is_merged_once_per_window_close(self, surge):
        lengths = {
            length
            for rule in slo_module.DEFAULT_RULES
            for length in (rule.long_windows, rule.short_windows)
        }
        assert len(surge.merges_per_close) == surge.report.fleet_windows
        assert max(surge.merges_per_close) == len(lengths) == 4
        # while fewer windows exist than a lookback asks for, lookbacks
        # coincide and share one merge
        assert surge.merges_per_close[0] == 1

    def test_the_control_loop_merges_no_windows_of_its_own(self, surge):
        # the autoscaler reads the evaluator's burn, so the simulator
        # merges only for the end-of-run report: the fleet registry and
        # one p99 per shard, not the last four fleet windows every tick
        assert surge.calls["cluster_merge_windows"] == 1 + len(surge.nodes)

    def test_chaos_windows_advance_per_close_not_per_operation(self):
        advances = []
        advance = TimeSeriesRecorder.advance

        def advance_counted(self, now):
            closed = advance(self, now)
            advances.append(len(closed))
            return closed

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TimeSeriesRecorder, "advance", advance_counted)
            timeline = build_chaos_timeline(
                [
                    ScenarioResult("a", 130, outcomes=["ok"] * 130),
                    ScenarioResult("b", 70, outcomes=["recovered"] * 70),
                ]
            )
        # 200 ops in 25-op windows: one advance per edge crossed, each
        # closing one window; the last window is the flushed tail
        assert len(timeline.windows) == 8
        assert advances == [1] * 7

    def test_each_label_set_is_canonicalised_once(self, surge):
        built = surge.keys_built
        assert 0 < len(built) == len(set(built))
        assert len(built) < 100

    def test_label_sets_are_written_per_window_not_per_request(self, surge):
        # Each fold writes each label set its records touched once, and the
        # run's readers (SLO evaluation, this module's burn re-check) look
        # up a handful per fleet window: at most one key per fold and
        # distinct label set, and fewer keys than requests. On this run:
        # 768 keys for 40 folds x 43 label sets = 1,720 (1,071 served);
        # with one labelled update per event it was 13,774, > 8 x served.
        folds, label_sets = surge.calls["fold_window_records"], len(surge.keys_built)
        assert 0 < surge.calls["label_key"] <= folds * label_sets
        assert surge.calls["label_key"] < surge.report.served

    def test_one_fold_per_non_empty_node_window(self, surge):
        # nothing reads a node's registry mid-window, so its pending
        # records are folded exactly once, when the window closes
        non_empty = sum(
            1 for node in surge.nodes for w in node.windows if len(w.registry)
        )
        assert surge.calls["fold_window_records"] == non_empty > len(surge.nodes)

    def test_every_event_reaches_its_window_hook_once(self, surge):
        # the wall tracer's ``obs.calls`` row counts these three names
        report, calls = surge.report, surge.calls
        assert calls["record_window_verdict"] == report.arrivals + report.expired
        assert calls["record_window_served"] == report.served > 0
        assert calls["record_window_completion"] == report.on_time + report.tardy > 0

    def test_gateway_python_calls_per_run(self, surge):
        # Python-level calls inside CompressionGateway.submit / serve_batch
        # (this module's hook and compress_seconds wrappers included, codec
        # work below _compress_task not) over 1,226 arrivals and 1,071
        # serves. When each request built an admission-verdict object, a
        # heap-entry object compared through a dataclass __lt__ and a
        # frozen served-request copy, this run made 15,737 and 24,305.
        # serve_batch made 21,892 while each serve formatted its rung label
        # (Rung.label and CompressionConfig.label per request); with the
        # labels formatted once per gateway it makes 19,750.
        calls = surge.gateway_calls
        assert 0 < calls["submit"] <= 13_336
        assert 0 < calls["serve_batch"] <= 19_750


class TestEquivalence:
    def test_shared_merge_burns_equal_direct_burn_rate_calls(self, surge):
        assert surge.burns_checked > 2 * surge.report.fleet_windows
        assert surge.burn_mismatches == []

    def test_fleet_windows_equal_the_per_node_fold_when_nodes_join_mid_window(self):
        # control ticks every 0.1 s against 0.25 s windows: nodes spawn
        # inside a window and must pick the fleet's index up at spawn
        seen = _observe(_scenario(control_interval_seconds=0.1))
        width = seen.report.window_seconds
        late = [n for n in seen.nodes if n.created_at > 0]
        assert late and any(n.created_at % width for n in late)
        for node in late:
            assert [w.index for w in node.windows] == list(range(len(node.windows)))
            used = [w.index for w in node.windows if len(w.registry)]
            assert not used or used[0] >= int(node.created_at // width)
        assert any(len(w.registry) for node in late for w in node.windows)

        expected = merge_shard_windows([node.windows for node in seen.nodes])
        assert len(seen.fleet_windows) == len(expected) == seen.report.fleet_windows
        for ours, theirs in zip(seen.fleet_windows, expected):
            assert (ours.index, ours.start, ours.end) == (
                theirs.index, theirs.start, theirs.end,
            )
            assert registry_snapshot(ours.registry) == registry_snapshot(
                theirs.registry
            )

"""Self-test of the wall-clock benchmark's plumbing, at ``--smoke`` size.

Run explicitly (it is not part of tier-1)::

    python -m pytest benchmarks/wall -q

It checks names, shapes and invariants, never speeds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """All five workloads once, smoke-sized, one repetition plus the traced
    ones: the result line, results.json and the span files."""
    out = tmp_path_factory.mktemp("wall")
    done = run_bench(
        "--smoke", "--reps", "1", "--trace", "--seed", "3", "--out", str(out)
    )
    assert done.returncode == 0, done.stdout[-2000:]
    return result_line(done), json.loads((out / "results.json").read_text()), out


def test_benchmark_json_restates_the_spec(declared):
    assert declared["command"] == ["python3", "benchmarks/wall/bench.py"]
    assert declared["paths"] == ["benchmarks/wall"]
    assert declared["run_seconds"] == spec.RUN_SECONDS
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 for w in declared["workloads"])
    for section, metrics in (
        ("end_to_end", spec.END_TO_END),
        ("per_layer", spec.PER_LAYER),
    ):
        assert [m["name"] for m in declared[section]] == [m.name for m in metrics]
        for row, metric in zip(declared[section], metrics):
            assert NAME.match(row["name"]), row["name"]
            assert UNIT.match(row["unit"]), row
            assert (row["unit"], row["better"]) == (metric.unit, metric.better)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for row, metric in zip(declared["end_to_end"], spec.END_TO_END):
        assert row["bound"] == metric.bound <= 0.25


def test_result_line_without_trace_is_the_end_to_end_set(declared):
    # the driver's command line, plus the smoke size
    done = run_bench(
        "--workload", "codec_small", "--seed", "5", "--seconds", "15",
        "--trace", "0", "--smoke", "--reps", "1",
    )
    assert done.returncode == 0
    line = result_line(done)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    assert list(line["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    for row in declared["end_to_end"]:
        assert line["metrics"][row["name"]]["unit"] == row["unit"]
        assert line["metrics"][row["name"]]["value"] > 0


def test_traced_result_line_has_every_per_layer_name(declared, traced_run):
    line, __, __ = traced_run
    assert line["correct"] is True
    expected = {
        f"{workload}.{row['name']}"
        for workload in spec.WORKLOADS
        for row in declared["per_layer"]
    }
    assert set(line["metrics"]) == expected


def test_each_metric_appears_only_on_its_listed_workloads(traced_run):
    __, results, __ = traced_run
    for workload in spec.WORKLOADS:
        table = results["workloads"][workload]["metrics"]
        assert set(table) == set(bench.end_to_end_names(workload))
        assert results["workloads"][workload]["failed"] == 0
        for name, row in table.items():
            assert row["n"] == 1 and row["min"] <= row["median"] <= row["max"]
            assert row["unit"] == spec.BY_NAME[name].unit
    listed = {m.name: m.workloads for m in spec.LISTED if m.workloads}
    assert "get_p50_ms" not in results["workloads"]["codec_small"]["metrics"]
    assert listed["sim_served_per_s"] == ("serve_overload", "cluster_control")


def test_every_layer_reports_and_time_is_attributed(traced_run):
    __, results, __ = traced_run
    for workload in spec.WORKLOADS:
        layers = results["workloads"][workload]["layers"]
        for layer in spec.LAYERS:
            assert layers[f"{layer}.self_s"] >= 0.0
            assert layers[f"{layer}.calls"] >= 0
        assert layers["trace.unattributed_share"] <= 0.10


def test_spans_nest_and_self_times_are_non_negative(traced_run):
    __, __, out = traced_run
    for workload in spec.WORKLOADS:
        spans = [
            json.loads(line)
            for line in (out / f"trace-{workload}.jsonl").read_text().splitlines()
        ]
        assert spans[0]["parent"] == -1 and spans[0]["layer"] == "bench"
        own = [s["end"] - s["start"] for s in spans]
        for index, span in enumerate(spans):
            assert span["id"] == index and span["end"] >= span["start"]
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert span["parent"] < index
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
                own[span["parent"]] -= span["end"] - span["start"]
        assert min(own) >= -1e-9


def test_trajectory_file_compares_with_bench_diff(traced_run):
    __, results, out = traced_run
    from repro.trajectory import compare_trajectories, has_regressions, load_trajectory

    entries = load_trajectory(str(out / "trajectory.json"))
    for workload in spec.WORKLOADS:
        for name in bench.end_to_end_names(workload):
            entry = entries[f"wall.{workload}.{name}"]
            assert entry.tolerance == spec.BY_NAME[name].bound
            assert entry.value == pytest.approx(
                results["workloads"][workload]["metrics"][name]["value"], rel=1e-5
            )
    assert not has_regressions(compare_trajectories(entries, entries))


def test_tracer_restores_every_patched_attribute_by_identity():
    trace = bench.load_trace()
    tracer = trace.Tracer()
    tracer.install()
    patched = tracer.patched()
    try:
        assert len(patched) == len(trace.TARGETS)
        for owner, attr, raw, wrapper in patched:
            assert vars(owner)[attr] is wrapper is not raw
    finally:
        tracer.restore()
    for owner, attr, raw, __ in patched:
        assert vars(owner)[attr] is raw
    assert tracer.patched() == []


def test_a_different_seed_changes_the_inputs_digest():
    import workloads

    for workload in workloads.WORKLOADS.values():
        first, again, other = (
            workload.prepare(seed, True)["inputs_sha256"] for seed in (1, 1, 2)
        )
        assert first == again, workload.name
        # the two simulators run one fixed input (workloads.SIM_SEED)
        fixed = workload.name in ("serve_overload", "cluster_control")
        assert (first == other) == fixed, workload.name


def test_no_program_no_result(tmp_path):
    """In a directory with only the benchmark's own files there is nothing
    to measure: non-zero exit, no result line."""
    target = tmp_path / "benchmarks" / "wall"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, str(target / "bench.py"), "--workload", "codec_small"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""

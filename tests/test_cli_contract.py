"""One output contract for all 15 subcommands (``repro.cli``).

- success: exit 0, stdout is the library renderer's string plus one
  newline and nothing else;
- a gate forced to fail: exit 1, ``FAIL:`` on stderr, stdout unchanged;
- a bad invocation: exit 2;
- ``--output FILE``: stdout empty, the file ends in exactly one newline,
  the confirmation is on stderr.

Everything runs through ``main()`` in-process at smoke scale.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.chaos import format_scorecard as format_chaos
from repro.chaos import run_chaos
from repro.cli import commands, main
from repro.cluster import format_cluster_scorecard, run_cluster_simulation
from repro.codecs import get_codec, train_dictionary
from repro.corpus import generate_records
from repro.graphs.model import format_spec
from repro.graphs.registry import get_graph
from repro.perfmodel import DEFAULT_MACHINE
from repro.serving import (
    format_scorecard,
    format_timeline,
    run_simulation,
    timeline_jsonl,
)
from repro.trajectory import (
    TrajectoryEntry,
    compare_trajectories,
    format_diff,
    load_trajectory,
    save_trajectory,
)

SUBCOMMANDS = [name for name, *__ in commands()]

_CHAOS = ["chaos", "--plan", "none", "--seed", "7", "--ops", "0.1"]
_SERVE = ["serve-sim", "--scenario", "baseline", "--seed", "7", "--scale", "0.05"]
_SLO = ["slo", "--scenario", "baseline", "--seed", "7", "--scale", "0.05"]
_CLUSTER = ["cluster-sim", "--scenario", "fleet-steady", "--seed", "7",
            "--scale", "0.05"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Inputs every case shares, written once."""
    root = tmp_path_factory.mktemp("cli-contract")
    data = generate_records(4096, seed=5)
    (root / "sample.bin").write_bytes(data)
    (root / "sample.zst").write_bytes(get_codec("zstd").compress(data).data)
    (root / "clean.py").write_text("import json\nout = json.dumps({}, sort_keys=True)\n")
    (root / "dirty.py").write_text("import time\nstart = time.time()\n")
    (root / "garbage.txt").write_text("this is not json\n")
    (root / "watch-no-start.jsonl").write_text('{"kind":"window","index":0}\n')
    (root / "watch-list.jsonl").write_text("[1,2]\n")
    (root / "watch-bad-start.jsonl").write_text(
        '{"kind":"window","index":0,"start":"a","end":1}\n'
    )
    (root / "list.json").write_text("[]\n")
    (root / "bad-entry.json").write_text('{"schema":1,"entries":{"a":5}}\n')
    save_trajectory(
        str(root / "base.json"), {"p99": TrajectoryEntry("p99", 10.0, "ms", False)}
    )
    save_trajectory(
        str(root / "slow.json"), {"p99": TrajectoryEntry("p99", 20.0, "ms", False)}
    )
    return root


@pytest.fixture(autouse=True)
def _leave_no_telemetry_behind():
    yield
    obs.disable()
    obs.reset()


def _run(argv, capsys):
    capsys.readouterr()
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _lint(files, name, *extra):
    return ["lint", files / name, *extra]


# -- success: stdout is exactly the report --------------------------------------


def _expect_compress(files):
    data = (files / "sample.bin").read_bytes()
    result = get_codec("zstd").compress(data)
    speed = DEFAULT_MACHINE.compress_speed("zstd", result.counters)
    return (
        f"{len(data)} -> {len(result.data)} bytes "
        f"(ratio {result.ratio:.2f}, modeled {speed / 1e6:.0f} MB/s)"
    )


def _expect_train_dict(files):
    sample = (files / "sample.bin").read_bytes()
    trained = train_dictionary([sample, sample], max_size=1024)
    return (
        f"trained {len(trained)} bytes from 2 samples "
        f"(dict id {trained.dict_id:#010x})"
    )


def _expect_bench_diff(files):
    base = load_trajectory(str(files / "base.json"))
    return format_diff(compare_trajectories(base, base))


#: name -> (argv builder, expected report builder or None when the command
#: assembles its report itself; then only the shape is checked)
SUCCESS = {
    "compress": (
        lambda f: ["compress", f / "sample.bin", f / "out.zst"], _expect_compress,
    ),
    "decompress": (
        lambda f: ["decompress", f / "sample.zst", f / "back.bin"],
        lambda f: f"{(f / 'sample.zst').stat().st_size} -> 4096 bytes",
    ),
    "inspect": (lambda f: ["inspect", f / "sample.zst"], None),
    "bench": (lambda f: ["bench", f / "sample.bin", "--levels", "1"], None),
    "train-dict": (
        lambda f: ["train-dict", f / "dict.bin", f / "sample.bin",
                   f / "sample.bin", "--max-size", "1024"],
        _expect_train_dict,
    ),
    "optimize": (
        lambda f: ["optimize", f / "sample.bin", "--levels", "1", "--top", "2"],
        None,
    ),
    "fleet-report": (
        lambda f: ["fleet-report", "--days", "1", "--samples-per-day", "2000"],
        None,
    ),
    "obs": (
        lambda f: ["obs", "--workload", "rpc", "--format", "jsonl"],
        # the command leaves its registry behind; render it the same way
        lambda f: obs.to_jsonl(obs.get_registry()),
    ),
    "chaos": (
        lambda f: _CHAOS,
        lambda f: format_chaos(run_chaos(plan="none", seed=7, ops=0.1)),
    ),
    "serve-sim": (
        lambda f: _SERVE,
        lambda f: format_scorecard(run_simulation("baseline", seed=7, scale=0.05)),
    ),
    "slo": (
        lambda f: _SLO + ["--format", "jsonl"],
        lambda f: timeline_jsonl(
            run_simulation(
                "baseline", seed=7, scale=0.05, window_seconds=0.25
            ).timeline
        ),
    ),
    "cluster-sim": (
        lambda f: _CLUSTER,
        lambda f: format_cluster_scorecard(
            run_cluster_simulation("fleet-steady", seed=7, scale=0.05)
        ),
    ),
    "bench-diff": (
        lambda f: ["bench-diff", f / "base.json", f / "base.json"],
        _expect_bench_diff,
    ),
    "lint": (
        lambda f: _lint(f, "clean.py"),
        lambda f: "repro lint: clean (1 files)",
    ),
    "graph": (
        lambda f: ["graph", "describe", "--graph", "float"],
        lambda f: format_spec(get_graph("float")),
    ),
}


def test_every_subcommand_has_a_success_case():
    assert sorted(SUCCESS) == sorted(SUBCOMMANDS) and len(SUBCOMMANDS) == 15


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_success_stdout_is_exactly_the_report(name, files, capsys):
    argv, expected = SUCCESS[name]
    code, out, err = _run(argv(files), capsys)
    assert code == 0
    assert "FAIL" not in err
    assert out.endswith("\n") and not out.endswith("\n\n")
    if expected is not None:
        assert out == expected(files).rstrip("\n") + "\n"


# -- gates: exit 1, FAIL on stderr, stdout unchanged --------------------------------

#: stdout of each gated command with no gate set, computed once
_UNGATED = {}

GATES = [
    ("chaos", lambda f: _CHAOS, ["--min-recovered", "1000000000"]),
    ("chaos", lambda f: _CHAOS, ["--max-failed", "-1"]),
    ("serve-sim", lambda f: _SERVE, ["--max-shed-rate", "-1"]),
    ("serve-sim", lambda f: _SERVE, ["--max-p99-ms", "0"]),
    ("serve-sim", lambda f: _SERVE, ["--min-served", "1000000000"]),
    ("slo", lambda f: _SLO, ["--max-page-seconds", "-1"]),
    ("cluster-sim", lambda f: _CLUSTER, ["--max-shed-rate", "-1"]),
    ("cluster-sim", lambda f: _CLUSTER, ["--min-served", "1000000000"]),
    ("cluster-sim", lambda f: _CLUSTER, ["--max-page-seconds", "-1"]),
    ("optimize",
     lambda f: ["optimize", f / "sample.bin", "--levels", "1", "--top", "2"],
     ["--min-speed", "999999"]),
    ("optimize",
     lambda f: ["optimize", f / "sample.bin", "--levels", "1", "--top", "2"],
     ["--max-decode-ms", "0.000000001"]),
]


@pytest.mark.parametrize(
    "name,argv,gate", GATES, ids=[f"{n}{g[0]}" for n, __, g in GATES]
)
def test_failed_gate_exits_1_and_leaves_stdout_alone(name, argv, gate, files, capsys):
    key = tuple(map(str, argv(files)))
    if key not in _UNGATED:
        _UNGATED[key] = _run(argv(files), capsys)[1]
    ungated = _UNGATED[key]
    code, out, err = _run(argv(files) + gate, capsys)
    assert code == 1
    assert err.splitlines()[-1].startswith("FAIL: ")
    assert "FAIL" not in out
    if name == "optimize":
        # an unmeetable requirement changes feasibility, so the ranking's
        # last column and the best line differ; the rows stay
        assert out.splitlines()[0] == ungated.splitlines()[0]
    else:
        assert out == ungated


def test_bench_diff_regression_is_a_failed_gate(files, capsys):
    argv = ["bench-diff", files / "base.json", files / "slow.json"]
    code, out, err = _run(argv, capsys)
    assert code == 1 and err.startswith("FAIL: ")
    base = load_trajectory(str(files / "base.json"))
    slow = load_trajectory(str(files / "slow.json"))
    assert out == format_diff(compare_trajectories(base, slow)) + "\n"
    assert _run(argv + ["--max-regression", "2.0"], capsys)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        lambda f: ["obs", "watch", f / "garbage.txt"],
        lambda f: ["obs", "watch", f / "watch-no-start.jsonl"],
        lambda f: ["obs", "watch", f / "watch-list.jsonl"],
        lambda f: ["obs", "watch", f / "watch-bad-start.jsonl"],
        lambda f: ["graph", "decompress", f / "garbage.txt", f / "out.bin"],
        lambda f: ["graph", "describe", "--spec", f / "garbage.txt"],
    ],
    ids=["obs-watch", "obs-watch-missing-field", "obs-watch-row-not-an-object",
         "obs-watch-wrong-type", "graph-decompress", "graph-spec"],
)
def test_bad_data_exits_1_with_nothing_on_stdout(argv, files, capsys):
    code, out, err = _run(argv(files), capsys)
    assert (code, out) == (1, "")
    assert err.startswith("FAIL: ")


# -- usage errors: exit 2 -----------------------------------------------------------


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_unknown_flag_is_a_usage_error(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([name, "--no-such-flag"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        lambda f: ["bench-diff", f / "base.json", f / "absent.json"],
        lambda f: ["bench-diff", f / "base.json", f / "list.json"],
        lambda f: ["bench-diff", f / "base.json", f / "bad-entry.json"],
        lambda f: ["lint", f / "clean.py", "--rule", "Z999"],
    ],
    ids=["bench-diff-missing-file", "bench-diff-not-an-object",
         "bench-diff-entry-not-an-object", "lint-unknown-rule"],
)
def test_unusable_argument_values_exit_2(argv, files, capsys):
    code, out, err = _run(argv(files), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("FAIL: ")


def test_unknown_choice_is_rejected_by_the_parser(files):
    for argv in (
        ["chaos", "--plan", "hurricane"],
        ["graph", "compress", files / "sample.bin", files / "o", "--graph", "nope"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([str(a) for a in argv])
        assert exit_info.value.code == 2


# -- --output: the file gets the report, stdout nothing ---------------------------------

OUTPUTS = [
    ("slo-table", lambda f: _SLO,
     lambda f: format_timeline(
         run_simulation("baseline", seed=7, scale=0.05, window_seconds=0.25).timeline
     )),
    ("obs-table", lambda f: ["obs", "--workload", "rpc", "--format", "table"],
     lambda f: obs.to_table(obs.get_registry())),
    ("lint-jsonl", lambda f: _lint(f, "dirty.py", "--format", "jsonl"), None),
]


@pytest.mark.parametrize(
    "label,argv,expected", OUTPUTS, ids=[label for label, *__ in OUTPUTS]
)
def test_output_flag_moves_the_report_off_stdout(label, argv, expected, files, capsys):
    target = files / f"{label}.out"
    code, out, err = _run(argv(files) + ["--output", target], capsys)
    assert out == ""
    assert f"wrote {target}" in err
    text = target.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    if expected is not None:
        assert code == 0 and text == expected(files) + "\n"
    else:
        assert code == 1 and '"rule":"D001"' in text  # the lint gate still ran

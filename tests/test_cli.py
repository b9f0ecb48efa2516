"""CLI tests (direct main() invocation, no subprocesses)."""

import pytest

from repro.cli import main
from repro.corpus import generate_records
from repro.serving import format_scorecard, run_simulation


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.bin"
    path.write_bytes(generate_records(8192, seed=5))
    return path


class TestCompressDecompress:
    def test_roundtrip(self, tmp_path, sample_file, capsys):
        compressed = tmp_path / "out.zst"
        restored = tmp_path / "restored.bin"
        assert main(["compress", str(sample_file), str(compressed), "--level", "3"]) == 0
        assert main(["decompress", str(compressed), str(restored)]) == 0
        assert restored.read_bytes() == sample_file.read_bytes()
        assert "ratio" in capsys.readouterr().out

    @pytest.mark.parametrize("codec", ["zstd", "lz4", "zlib", "gzip"])
    def test_all_codecs(self, tmp_path, sample_file, codec):
        compressed = tmp_path / "out.bin"
        restored = tmp_path / "restored.bin"
        assert main(["compress", str(sample_file), str(compressed), "--codec", codec]) == 0
        assert main(["decompress", str(compressed), str(restored), "--codec", codec]) == 0
        assert restored.read_bytes() == sample_file.read_bytes()

    def test_dictionary_flow(self, tmp_path, sample_file):
        dictionary = tmp_path / "dict.bin"
        other = tmp_path / "other.bin"
        other.write_bytes(generate_records(8192, seed=6))
        assert main(
            ["train-dict", str(dictionary), str(sample_file), str(other), "--max-size", "2048"]
        ) == 0
        assert 0 < len(dictionary.read_bytes()) <= 2048
        compressed = tmp_path / "c.zst"
        restored = tmp_path / "r.bin"
        assert main(
            ["compress", str(sample_file), str(compressed), "--dictionary", str(dictionary)]
        ) == 0
        assert main(
            ["decompress", str(compressed), str(restored), "--dictionary", str(dictionary)]
        ) == 0
        assert restored.read_bytes() == sample_file.read_bytes()


class TestInspect:
    def test_inspect_frame(self, tmp_path, sample_file, capsys):
        compressed = tmp_path / "c.zst"
        assert main(["compress", str(sample_file), str(compressed)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(compressed)]) == 0
        out = capsys.readouterr().out
        assert "content size:    8192" in out
        assert "blocks:" in out


class TestBench:
    def test_bench_prints_table(self, sample_file, capsys):
        assert main(["bench", str(sample_file), "--levels", "1", "3"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "zstd" in out and "lz4" in out


class TestOptimize:
    def test_optimize_prints_ranking(self, sample_file, capsys):
        assert main(
            ["optimize", str(sample_file), "--levels", "1", "3", "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "best:" in out

    def test_unsatisfiable_requirements_exit_code(self, sample_file, capsys):
        code = main(
            [
                "optimize", str(sample_file),
                "--levels", "1", "--min-speed", "999999",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        # the ranking is the report; the verdict is not part of it
        assert "FAIL: no configuration" in captured.err
        assert "no configuration" not in captured.out and "zstd-1" in captured.out

    def test_block_size_grid(self, sample_file, capsys):
        assert main(
            [
                "optimize", str(sample_file),
                "--codecs", "zstd", "--levels", "1",
                "--block-sizes", "4", "16",
                "--max-decode-ms", "10",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "zstd-1@4KB" in out and "zstd-1@16KB" in out


class TestFleetReport:
    def test_fleet_report(self, capsys):
        assert main(
            ["fleet-report", "--days", "2", "--samples-per-day", "20000"]
        ) == 0
        out = capsys.readouterr().out
        assert "compression share" in out
        assert "Data Warehouse" in out


class TestConsoleEntryPoint:
    def test_scripts_entry_resolves_to_cli_main(self):
        import importlib
        import pathlib

        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"repro": "repro.cli:main"}
        module_name, __, attr = scripts["repro"].partition(":")
        entry = getattr(importlib.import_module(module_name), attr)
        assert entry is main
        # the resolved entry behaves like a console script: bad usage
        # exits through argparse with the conventional status 2
        with pytest.raises(SystemExit) as excinfo:
            entry(["--no-such-flag"])
        assert excinfo.value.code == 2


class TestServeSim:
    def test_scorecard_and_passing_gates(self, capsys):
        assert main(
            [
                "serve-sim", "--scenario", "overload", "--seed", "7",
                "--scale", "0.1", "--max-shed-rate", "1.0",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "serving scorecard -- scenario 'overload', seed 7" in out
        assert "ladder:" in out
        assert "goodput" in out

    def test_min_served_gate_fails(self, capsys):
        assert main(
            [
                "serve-sim", "--scenario", "baseline", "--seed", "7",
                "--scale", "0.05", "--min-served", "1000000",
            ]
        ) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err
        # stdout is exactly the scorecard: the verdict never pollutes it
        report = run_simulation(scenario="baseline", seed=7, scale=0.05)
        assert captured.out == format_scorecard(report) + "\n"


class TestSloCommand:
    _ARGS = ["slo", "--scenario", "overload", "--seed", "42", "--scale", "0.5"]

    def test_table_timeline_prints(self, capsys):
        assert main(self._ARGS) == 0
        out = capsys.readouterr().out
        assert "slo timeline -- scenario 'overload', seed 42" in out
        assert "shed_rate: ok -> page" in out
        assert "final states:" in out

    def test_jsonl_runs_byte_identical(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for path in (first, second):
            assert main(
                self._ARGS + ["--format", "jsonl", "--output", str(path)]
            ) == 0
        assert first.read_bytes() == second.read_bytes()
        kinds = [
            __import__("json").loads(line)["kind"]
            for line in first.read_text().splitlines()
        ]
        assert kinds[0] == "run" and kinds[-1] == "end"

    def test_max_page_seconds_gate(self, capsys):
        assert main(self._ARGS + ["--max-page-seconds", "0"]) == 1
        assert "page-seconds exceeds" in capsys.readouterr().err
        assert main(
            ["slo", "--scenario", "baseline", "--seed", "7", "--scale",
             "0.25", "--max-page-seconds", "0"]
        ) == 0

    def test_shed_budget_override(self, capsys):
        # a huge budget keeps even overload from paging shed_rate
        assert main(
            self._ARGS + ["--shed-budget", "0.9", "--max-page-seconds", "0.5"]
        ) == 0


class TestObsWatch:
    def test_watch_replays_recorded_timeline(self, tmp_path, capsys):
        recorded = tmp_path / "timeline.jsonl"
        assert main(
            [
                "slo", "--scenario", "overload", "--seed", "42", "--scale",
                "0.5", "--format", "jsonl", "--output", str(recorded),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "watch", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "obs watch -- serving scenario 'overload', seed 42" in out
        assert "\x1b[31m" in out  # overload pages: red ANSI present
        assert "shed_rate: ok -> page" in out

    def test_no_color_strips_ansi(self, tmp_path, capsys):
        recorded = tmp_path / "timeline.jsonl"
        main(
            ["slo", "--scenario", "overload", "--seed", "42", "--scale",
             "0.25", "--format", "jsonl", "--output", str(recorded)]
        )
        capsys.readouterr()
        assert main(["obs", "watch", str(recorded), "--no-color"]) == 0
        assert "\x1b[" not in capsys.readouterr().out

    def test_garbage_input_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["obs", "watch", str(bad)]) == 1
        assert "obs watch:" in capsys.readouterr().err

    def test_plain_obs_still_works(self, capsys):
        assert main(["obs", "--workload", "rpc", "--format", "table"]) == 0
        assert "metric" in capsys.readouterr().out

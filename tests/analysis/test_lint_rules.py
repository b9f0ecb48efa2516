"""repro.lint: per-rule fixtures, suppressions, and the gate.

Each rule gets a pair of fixtures -- one that MUST trip and one that
must NOT -- written to a file and run through :func:`lint_paths`, so the
tests exercise the same parse/dispatch/suppression path as ``repro
lint``. The meta-test at the bottom runs the real rule set over the real
tree and pins the shipped contract: zero errors (the inline waiver is the
only exemption).
"""

import json
import os
import tempfile
import textwrap

import pytest

from repro.cli import main
from repro.lint import get_rules, lint_paths
from repro.lint.engine import F001, discover_files
from repro.lint.suppress import S001, S002, parse_suppressions

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def lint_source(source, path="pkg/fixture.py", rules=None):
    """Lint ``source`` as the file ``path`` under a fresh directory."""
    with tempfile.TemporaryDirectory() as root:
        target = os.path.join(root, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(source)
        return lint_paths([target], rules=rules)


def findings(source, path="pkg/fixture.py", rules=None):
    """Lint a dedented fixture; return its findings list."""
    report = lint_source(textwrap.dedent(source), path=path, rules=rules)
    return report.findings


def rule_ids(source, path="pkg/fixture.py", rules=None):
    return sorted({f.rule for f in findings(source, path, rules)})


class TestD001WallClock:
    def test_time_time_trips(self):
        assert "D001" in rule_ids("import time\nstart = time.time()\n")

    def test_perf_counter_trips(self):
        assert "D001" in rule_ids("import time\nstart = time.perf_counter()\n")

    def test_from_import_alias_trips(self):
        src = "from time import monotonic as now\nstamp = now()\n"
        assert "D001" in rule_ids(src)

    def test_injected_clock_is_clean(self):
        src = """
        def step(clock):
            return clock.now() + 1
        """
        assert "D001" not in rule_ids(src)

    def test_clock_module_is_exempt(self):
        src = "import time\nreturn_value = time.monotonic()\n"
        assert "D001" not in rule_ids(src, path="src/repro/resilience/clock.py")


class TestD002UnseededRandomness:
    def test_builtin_hash_trips(self):
        assert "D002" in rule_ids("token = hash('profile-a')\n")

    def test_module_level_random_trips(self):
        assert "D002" in rule_ids("import random\nx = random.random()\n")

    def test_unseeded_random_instance_trips(self):
        assert "D002" in rule_ids("import random\nrng = random.Random()\n")

    def test_seeded_random_instance_is_clean(self):
        assert "D002" not in rule_ids("import random\nrng = random.Random(7)\n")

    def test_unseeded_default_rng_trips(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert "D002" in rule_ids(src)

    def test_seeded_default_rng_is_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(1234)\n"
        assert "D002" not in rule_ids(src)

    def test_os_urandom_trips(self):
        assert "D002" in rule_ids("import os\nsalt = os.urandom(8)\n")

    def test_uuid4_trips(self):
        assert "D002" in rule_ids("import uuid\nrun_id = uuid.uuid4()\n")


class TestD003UnorderedIteration:
    def test_bare_listdir_loop_trips(self):
        src = """
        import os
        for name in os.listdir("corpus"):
            print(name)
        """
        assert "D003" in rule_ids(src)

    def test_sorted_listdir_is_clean(self):
        src = """
        import os
        for name in sorted(os.listdir("corpus")):
            print(name)
        """
        assert "D003" not in rule_ids(src)

    def test_bare_glob_trips(self):
        src = "import glob\npaths = [p for p in glob.glob('*.bin')]\n"
        assert "D003" in rule_ids(src)

    def test_set_iteration_trips(self):
        src = """
        def emit(items):
            for item in set(items):
                yield item
        """
        assert "D003" in rule_ids(src)

    def test_order_insensitive_reduction_is_clean(self):
        src = """
        import os
        count = len(os.listdir("corpus"))
        """
        assert "D003" not in rule_ids(src)


class TestD004UnsortedJson:
    def test_dumps_without_sort_keys_trips(self):
        assert "D004" in rule_ids("import json\nout = json.dumps({'b': 1})\n")

    def test_dumps_sort_keys_false_trips(self):
        src = "import json\nout = json.dumps({'b': 1}, sort_keys=False)\n"
        assert "D004" in rule_ids(src)

    def test_dumps_sort_keys_true_is_clean(self):
        src = "import json\nout = json.dumps({'b': 1}, sort_keys=True)\n"
        assert "D004" not in rule_ids(src)

    def test_dynamic_sort_keys_is_skipped(self):
        src = "import json\n\ndef emit(obj, flag):\n    return json.dumps(obj, sort_keys=flag)\n"
        assert "D004" not in rule_ids(src)


class TestE001DecodeBoundary:
    CODEC_PATH = "src/repro/codecs/fixture.py"

    def test_swallowed_low_level_error_trips(self):
        src = """
        def decode_block(buf):
            try:
                return buf[4], buf[8]
            except IndexError:
                return None, None
        """
        assert "E001" in rule_ids(src, path=self.CODEC_PATH)

    def test_reraise_as_corrupt_is_clean(self):
        src = """
        class CorruptDataError(Exception):
            pass

        def decode_block(buf):
            try:
                return buf[4], buf[8]
            except IndexError as exc:
                raise CorruptDataError("truncated block") from exc
        """
        assert "E001" not in rule_ids(src, path=self.CODEC_PATH)

    def test_bare_reraise_trips(self):
        src = """
        def decompress_stream(buf):
            try:
                return int(buf[:4])
            except ValueError:
                raise
        """
        assert "E001" in rule_ids(src, path=self.CODEC_PATH)

    def test_encoder_side_function_is_exempt(self):
        src = """
        def _choose_stream_mode(sample):
            try:
                return int(sample)
            except ValueError:
                return 0
        """
        assert "E001" not in rule_ids(src, path=self.CODEC_PATH)

    def test_non_codec_path_is_exempt(self):
        src = """
        def decode_row(buf):
            try:
                return buf[4]
            except IndexError:
                return None
        """
        assert "E001" not in rule_ids(src, path="src/repro/corpus/fixture.py")

    def test_graphs_package_is_in_scope(self):
        src = """
        def decode_stream(buf):
            try:
                return buf[4], buf[8]
            except IndexError:
                return None, None
        """
        assert "E001" in rule_ids(src, path="src/repro/graphs/fixture.py")

    def test_graphs_reraise_as_corrupt_is_clean(self):
        src = """
        class CorruptDataError(Exception):
            pass

        def decode_stream(buf):
            try:
                return buf[4], buf[8]
            except IndexError as exc:
                raise CorruptDataError("truncated frame") from exc
        """
        assert "E001" not in rule_ids(src, path="src/repro/graphs/fixture.py")


class TestO001InstrumentationGuard:
    def test_unguarded_hook_trips(self):
        src = """
        from repro.obs.instrument import record_codec_call

        def compress(data):
            record_codec_call("zstd", "compress", len(data))
            return data
        """
        assert "O001" in rule_ids(src)

    def test_enabled_guard_is_clean(self):
        src = """
        from repro.obs.instrument import record_codec_call
        from repro.obs.state import OBS_STATE

        def compress(data):
            if OBS_STATE.enabled:
                record_codec_call("zstd", "compress", len(data))
            return data
        """
        assert "O001" not in rule_ids(src)

    def test_recorder_guard_is_clean(self):
        src = """
        from repro.serving.slos import record_window_verdict

        def close_window(self, verdict):
            if self.recorder is not None:
                record_window_verdict(self.recorder, verdict)
        """
        assert "O001" not in rule_ids(src)

    def test_hoisted_flag_guard_is_clean(self):
        src = """
        from repro.obs.instrument import record_codec_call
        from repro.obs.state import OBS_STATE

        def run(chunks):
            obs_on = OBS_STATE.enabled
            for chunk in chunks:
                if obs_on:
                    record_codec_call("zstd", "compress", len(chunk))
        """
        assert "O001" not in rule_ids(src)

    def test_test_paths_are_exempt(self):
        src = """
        from repro.obs.instrument import record_codec_call

        def test_counts():
            record_codec_call("zstd", "compress", 10)
        """
        assert "O001" not in rule_ids(src, path="tests/obs/test_fixture.py")


def write_tree(root, files):
    """Write ``{relative path: source}`` under ``root``."""
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))


def u001(root, files):
    """U001 findings of ``lint_paths`` over ``root``'s src/ and tests/."""
    write_tree(root, files)
    report = lint_paths([str(root / "src"), str(root / "tests")])
    return [f for f in report.findings if f.rule == "U001"], report


class TestU001UnreadSurface:
    LIB = {
        "src/pkg/__init__.py": "",
        "src/pkg/lib.py": """
            def helper(x):
                return x + 1
        """,
    }

    def test_name_read_only_from_tests_is_an_error(self, tmp_path):
        found, __ = u001(tmp_path, {
            **self.LIB,
            "tests/test_lib.py": "from pkg.lib import helper\nassert helper(1) == 2\n",
        })
        assert [(f.severity, f.path.endswith("src/pkg/lib.py"), f.line) for f in found] == [
            ("error", True, 2)
        ]
        assert "helper" in found[0].message

    @pytest.mark.parametrize("reader_dir", ["benchmarks", "examples"])
    def test_name_read_from_benchmarks_or_examples_is_clean(self, tmp_path, reader_dir):
        found, __ = u001(tmp_path, {
            **self.LIB,
            f"{reader_dir}/run.py": "from pkg.lib import helper\nprint(helper(1))\n",
        })
        assert found == []

    def test_reexport_and_dunder_all_alone_are_still_errors(self, tmp_path):
        found, __ = u001(tmp_path, {
            **self.LIB,
            "src/pkg/__init__.py": 'from pkg.lib import helper\n__all__ = ["helper"]\n',
        })
        assert [f.line for f in found] == [2]

    def test_methods_count_and_a_registry_decorator_is_a_reader(self, tmp_path):
        found, __ = u001(tmp_path, {
            "src/pkg/rules.py": """
                def register(cls):
                    return cls


                @register
                class Kind:
                    def encode(self, data):
                        return data

                    def unread(self):
                        return None


                def _use(kind):
                    return kind.encode(b"")
            """,
        })
        assert [f.message.split()[0] for f in found] == ["Kind.unread"]

    def test_waiver_on_a_decorated_def_suppresses_it(self, tmp_path):
        found, report = u001(tmp_path, {
            "src/pkg/lib.py": """
                import functools


                # repro: lint-ok[U001] -- read by the release script
                @functools.lru_cache(maxsize=None)
                def cached(x):
                    return x
            """,
        })
        assert found == []
        assert [f.rule for f in report.suppressed] == ["U001"]
        assert S002 not in {f.rule for f in report.findings}

    def test_unused_u001_waiver_is_stale(self, tmp_path):
        found, report = u001(tmp_path, {
            **self.LIB,
            "src/pkg/lib.py": """
                # repro: lint-ok[U001] -- stale: the reader below exists
                def helper(x):
                    return x + 1


                VALUE = helper(1)
            """,
        })
        assert found == []
        assert [f.rule for f in report.findings] == [S002]

    def test_test_only_function_fails_the_gate(self, tmp_path, capsys):
        write_tree(tmp_path, {
            **self.LIB,
            "examples/demo.py": "from pkg.lib import helper\nhelper(0)\n",
        })
        args = ["lint", str(tmp_path / "src"), str(tmp_path / "tests")]
        (tmp_path / "tests").mkdir()
        assert main(args) == 0
        write_tree(tmp_path, {
            "src/pkg/extra.py": "def only_tested():\n    return 1\n",
            "tests/test_extra.py": "from pkg.extra import only_tested\n",
        })
        capsys.readouterr()
        assert main(args) == 1
        assert "U001" in capsys.readouterr().out

    def test_two_runs_identical_jsonl(self, tmp_path, capsys):
        write_tree(tmp_path, {**self.LIB, "tests/test_lib.py": "import pkg.lib\n"})
        args = ["lint", str(tmp_path / "src"), str(tmp_path / "tests"), "--format", "jsonl"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert first == capsys.readouterr().out
        assert [json.loads(line)["rule"] for line in first.splitlines()] == ["U001"]


class TestSuppressions:
    def test_inline_suppression_cancels_finding(self):
        src = (
            "import time\n"
            "start = time.time()  # repro: lint-ok[D001] -- wall telemetry only\n"
        )
        report = lint_source(src, path="pkg/fixture.py")
        assert "D001" not in {f.rule for f in report.findings}
        assert "D001" in {f.rule for f in report.suppressed}

    def test_standalone_comment_covers_next_code_line(self):
        src = (
            "import time\n"
            "# repro: lint-ok[D001] -- wall telemetry only; the justification\n"
            "# may continue over several comment lines\n"
            "start = time.time()\n"
        )
        report = lint_source(src, path="pkg/fixture.py")
        assert "D001" not in {f.rule for f in report.findings}

    def test_missing_justification_is_s001_and_does_not_suppress(self):
        src = "import time\nstart = time.time()  # repro: lint-ok[D001]\n"
        ids = {f.rule for f in lint_source(src, path="pkg/fixture.py").findings}
        assert S001 in ids
        assert "D001" in ids  # the malformed marker suppressed nothing

    def test_bad_rule_id_is_s001(self):
        src = "x = 1  # repro: lint-ok[d1] -- lower-case id\n"
        __, marker_findings = parse_suppressions(src, "pkg/fixture.py")
        assert [f.rule for f in marker_findings] == [S001]

    def test_stale_suppression_warns_on_full_run_only(self):
        src = "x = 1  # repro: lint-ok[D001] -- nothing here trips D001\n"
        full = lint_source(src, path="pkg/fixture.py")
        assert S002 in {f.rule for f in full.findings}
        filtered = lint_source(src, path="pkg/fixture.py", rules=get_rules(["D004"]))
        assert S002 not in {f.rule for f in filtered.findings}

    def test_stale_suppression_is_warning_not_error(self):
        src = "x = 1  # repro: lint-ok[D001] -- stale on purpose\n"
        report = lint_source(src, path="pkg/fixture.py")
        assert S002 not in {f.rule for f in report.errors()}
        assert S002 in {f.rule for f in report.warnings()}


class TestEngine:
    def test_unparseable_file_is_f001(self):
        report = lint_source("def broken(:\n", path="pkg/fixture.py")
        assert [f.rule for f in report.findings] == [F001]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError):
            get_rules(["Z999"])

    def test_findings_sorted_by_location(self):
        src = (
            "import json\n"
            "import time\n"
            "a = time.time()\n"
            "b = json.dumps({})\n"
        )
        report = lint_source(src, path="pkg/fixture.py")
        keys = [f.sort_key() for f in report.findings]
        assert keys == sorted(keys)

    def test_discover_files_sorted_and_deduped(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.py").write_text("x = 1\n")
        (tmp_path / "skip.txt").write_text("not python\n")
        found = discover_files([str(tmp_path), str(tmp_path / "a.py")])
        assert [os.path.basename(p) for p in found] == ["a.py", "b.py", "c.py"]

    def test_two_runs_identical(self, tmp_path):
        (tmp_path / "mod.py").write_text("import time\nstart = time.time()\n")
        first = lint_paths([str(tmp_path)])
        second = lint_paths([str(tmp_path)])
        assert [f.to_dict() for f in first.findings] == [
            f.to_dict() for f in second.findings
        ]


class TestLintCli:
    DIRTY = (
        "import random\n"
        "import time\n\n"
        "start = time.time()\n"
        "rng = random.Random(hash('cell'))\n"
    )

    def test_dirty_fixture_fails_gate(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(self.DIRTY)
        code = main(["lint", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.err
        assert "D001" in captured.out and "D002" in captured.out

    def test_clean_fixture_passes_gate(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("import json\nout = json.dumps({}, sort_keys=True)\n")
        code = main(["lint", str(target)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_jsonl_output_deterministic(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(self.DIRTY)
        args = ["lint", str(target), "--format", "jsonl"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        entries = [json.loads(line) for line in first.splitlines()]
        assert all(
            set(entry)
            == {"rule", "severity", "path", "line", "col", "message", "line_text"}
            for entry in entries
        )
        assert entries == sorted(
            entries, key=lambda e: (e["path"], e["line"], e["col"], e["rule"])
        )

    def test_rule_filter(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(self.DIRTY)
        main(["lint", str(target), "--rule", "D002"])
        out = capsys.readouterr().out
        assert "D002" in out and "D001" not in out

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--rule", "Z999"]) == 2

    def test_list_rules_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D001", "D002", "D003", "D004", "E001", "O001", "U001"):
            assert rule_id in out


class TestShippedTreeIsClean:
    """The meta-test: the real rules over the real tree, CI's lint gate."""

    def test_src_and_tests_have_zero_new_errors(self):
        errors = lint_paths(
            [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")]
        ).errors()
        assert errors == [], "\n".join(
            f"{f.location()} {f.rule} {f.message}" for f in errors
        )

    def test_no_stale_suppressions_in_tree(self):
        report = lint_paths(
            [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")]
        )
        stale = [f for f in report.findings if f.rule == S002]
        assert stale == [], "\n".join(f.location() for f in stale)

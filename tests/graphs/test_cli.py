"""``repro graph`` CLI: train/compress/decompress/describe, all deterministic."""

import json

import pytest

from repro.cli import main
from repro.graphs.samples import category_sample


@pytest.fixture()
def record_file(tmp_path):
    path = tmp_path / "records.bin"
    path.write_bytes(category_sample("record", size=65536, seed=7))
    return path


class TestCompressDecompress:
    def test_roundtrip_named_graph(self, tmp_path, record_file, capsys):
        blob = tmp_path / "out.rgz"
        back = tmp_path / "back.bin"
        assert main(
            ["graph", "compress", str(record_file), str(blob), "--graph", "record"]
        ) == 0
        assert "ratio" in capsys.readouterr().out
        assert main(["graph", "decompress", str(blob), str(back)]) == 0
        assert back.read_bytes() == record_file.read_bytes()

    def test_compress_is_byte_identical_across_runs(self, tmp_path, record_file):
        first = tmp_path / "a.rgz"
        second = tmp_path / "b.rgz"
        for out in (first, second):
            assert main(
                ["graph", "compress", str(record_file), str(out), "--graph", "record"]
            ) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_spec_file_roundtrip(self, tmp_path, record_file):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"kind": "delta", "width": 1,
                        "child": {"kind": "leaf", "codec": "zlib", "level": 6}},
                       sort_keys=True)
        )
        blob = tmp_path / "out.rgz"
        back = tmp_path / "back.bin"
        assert main(
            ["graph", "compress", str(record_file), str(blob), "--spec", str(spec_path)]
        ) == 0
        assert main(["graph", "decompress", str(blob), str(back)]) == 0
        assert back.read_bytes() == record_file.read_bytes()

    def test_decompress_corrupt_stream_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.rgz"
        bad.write_bytes(b"not a graph stream")
        out = tmp_path / "out.bin"
        assert main(["graph", "decompress", str(bad), str(out)]) == 1
        assert "FAIL: graph decompress:" in capsys.readouterr().err

    def test_unknown_graph_name_fails(self, tmp_path, record_file):
        with pytest.raises(SystemExit):
            main(
                ["graph", "compress", str(record_file), str(tmp_path / "o"),
                 "--graph", "nope"]
            )


class TestDescribeAndList:
    def test_list_shows_trained_graphs(self, capsys):
        assert main(["graph", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("record", "text", "float"):
            assert f"graph:{name}" in out

    def test_describe_named(self, capsys):
        assert main(["graph", "describe", "--graph", "float"]) == 0
        out = capsys.readouterr().out
        assert "headsplit" in out

    def test_describe_stream_is_deterministic(self, tmp_path, record_file, capsys):
        blob = tmp_path / "out.rgz"
        assert main(
            ["graph", "compress", str(record_file), str(blob), "--graph", "record"]
        ) == 0
        capsys.readouterr()
        assert main(["graph", "describe", "--stream", str(blob)]) == 0
        first = capsys.readouterr().out
        assert main(["graph", "describe", "--stream", str(blob)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "frames:" in first and "tokenize" in first


class TestTrain:
    def test_train_writes_valid_spec(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        assert main(
            ["graph", "train", "--category", "record", "--seed", "0",
             "--generations", "1", "--population", "2",
             "--count", "1", "--size", "8192", "--out", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "winner:" in stdout
        from repro.graphs.model import parse_spec, validate_spec

        validate_spec(parse_spec(out.read_bytes()))

    def test_train_output_is_deterministic(self, capsys):
        args = ["graph", "train", "--category", "record", "--seed", "3",
                "--generations", "1", "--population", "2",
                "--count", "1", "--size", "8192"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert first == capsys.readouterr().out

"""The ``repro obs`` subcommand: workloads run and snapshots render."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.disable()
    yield
    obs.disable()
    obs.reset()


def test_obs_kvstore_prometheus(capsys):
    assert main(["obs", "--workload", "kvstore", "--format", "prometheus"]) == 0
    out = capsys.readouterr().out
    # per-(algorithm, direction, level, stage) counters
    assert 'repro_codec_stage_ops_total{algorithm="zstd"' in out
    assert 'direction="compress"' in out and 'stage="match_finding"' in out
    # block-decode latency histogram (Fig. 13)
    assert "repro_kvstore_block_decode_seconds_bucket" in out
    assert "repro_kvstore_block_decode_seconds_count" in out
    assert 'repro_kvstore_block_cache_total{result="hit"}' in out


def test_obs_rpc_jsonl(capsys):
    assert main(["obs", "--workload", "rpc", "--format", "jsonl"]) == 0
    out = capsys.readouterr().out
    entries = [json.loads(line) for line in out.strip().splitlines()]
    names = {entry["metric"] for entry in entries}
    assert "repro_codec_calls_total" in names
    assert "repro_rpc_message_seconds" in names
    spans = [e for e in entries if e["metric"] == "repro_span_seconds"]
    assert any(
        e["labels"]["path"] == "workload.rpc;rpc.send" for e in spans
    )


def test_obs_table_and_file_output(capsys, tmp_path):
    out_path = tmp_path / "snapshot.txt"
    assert main([
        "obs", "--workload", "cache", "--format", "table",
        "--output", str(out_path),
    ]) == 0
    text = out_path.read_text()
    assert "repro_cache_requests_total" in text
    assert text.endswith("\n") and not text.endswith("\n\n")
    captured = capsys.readouterr()
    # stdout stays empty when the report goes to a file
    assert captured.out == "" and str(out_path) in captured.err


def test_obs_leaves_telemetry_disabled(capsys):
    assert not obs.is_enabled()
    main(["obs", "--workload", "rpc", "--format", "table"])
    assert not obs.is_enabled()

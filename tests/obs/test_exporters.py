"""Exporters: Prometheus text format, JSON lines, table rendering."""

from __future__ import annotations

import json

from repro.obs.export import to_jsonl, to_prometheus, to_table
from repro.obs.metrics import MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_codec_calls_total", help="codec API calls").inc(
        7, algorithm="zstd", direction="compress", level="3"
    )
    lat = reg.histogram("repro_decode_seconds", help="decode latency")
    for v in (0.001, 0.002, 0.004, 0.032):
        lat.observe(v, algorithm="zstd")
    return reg


class TestPrometheus:
    def test_type_and_help_lines(self):
        text = to_prometheus(_sample_registry())
        assert "# TYPE repro_codec_calls_total counter" in text
        assert "# HELP repro_codec_calls_total codec API calls" in text
        assert "# TYPE repro_decode_seconds histogram" in text

    def test_counter_sample_with_sorted_labels(self):
        text = to_prometheus(_sample_registry())
        assert (
            'repro_codec_calls_total{algorithm="zstd",direction="compress",'
            'level="3"} 7' in text
        )

    def test_histogram_buckets_cumulative_and_terminated(self):
        text = to_prometheus(_sample_registry())
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_decode_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert bucket_lines[-1].startswith(
            'repro_decode_seconds_bucket{algorithm="zstd",le="+Inf"}'
        )
        assert counts[-1] == 4
        assert 'repro_decode_seconds_count{algorithm="zstd"} 4' in text
        assert 'repro_decode_seconds_sum{algorithm="zstd"} 0.039' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1, path='a"b\\c\nd')
        text = to_prometheus(reg)
        assert 'path="a\\"b\\\\c\\nd"' in text


class TestJsonl:
    def test_every_line_parses_and_carries_labels(self):
        lines = to_jsonl(_sample_registry()).strip().splitlines()
        entries = [json.loads(line) for line in lines]
        assert len(entries) == 2
        by_name = {e["metric"]: e for e in entries}
        counter = by_name["repro_codec_calls_total"]
        assert counter["kind"] == "counter"
        assert counter["value"] == 7
        assert counter["labels"] == {
            "algorithm": "zstd", "direction": "compress", "level": "3"
        }
        hist = by_name["repro_decode_seconds"]
        assert hist["count"] == 4
        assert hist["min"] == 0.001
        assert hist["max"] == 0.032
        assert {"p50", "p90", "p99"} <= set(hist)

    def test_empty_registry(self):
        assert to_jsonl(MetricsRegistry()) == ""


class TestTable:
    def test_rows_present(self):
        table = to_table(_sample_registry())
        assert "repro_codec_calls_total" in table
        assert "algorithm=zstd" in table
        assert "p99" in table  # histogram row carries quantiles

    def test_empty_registry(self):
        assert "no telemetry" in to_table(MetricsRegistry())


class TestDeterministicJson:
    def test_json_line_sorts_keys_and_rounds(self):
        from repro.obs.export import json_line

        line = json_line({"b": 1 / 3, "a": {"z": 2 / 3, "y": 1}})
        assert line == '{"a":{"y":1,"z":0.666666667},"b":0.333333333}'
        # identical input -> identical bytes, regardless of insertion order
        assert line == json_line({"a": {"y": 1, "z": 2 / 3}, "b": 1 / 3})

    def test_round_floats_recursive_and_nonfinite_safe(self):
        import math

        from repro.obs.export import round_floats

        out = round_floats({"xs": [1.23456789012, {"y": 2.0}], "n": 3})
        assert out == {"xs": [1.23456789, {"y": 2.0}], "n": 3}
        assert math.isinf(round_floats(float("inf")))
        assert math.isnan(round_floats(float("nan")))

    def test_snapshot_order_independent_of_recording_order(self):
        from repro.obs.export import registry_snapshot
        from repro.obs.metrics import MetricsRegistry

        def build(order):
            reg = MetricsRegistry()
            for name, codec in order:
                reg.counter(name).inc(1, codec=codec)
            return registry_snapshot(reg)

        forward = build([("b_calls", "zstd"), ("a_calls", "lz4")])
        backward = build([("a_calls", "lz4"), ("b_calls", "zstd")])
        assert forward == backward
        assert [e["metric"] for e in forward] == sorted(
            e["metric"] for e in forward
        )

    def test_jsonl_byte_identical_across_runs(self):
        from repro.obs.export import to_jsonl
        from repro.obs.metrics import MetricsRegistry

        def build():
            reg = MetricsRegistry()
            reg.counter("calls").inc(3, codec="zstd")
            reg.histogram("lat").observe(0.125, codec="zstd")
            return to_jsonl(reg)

        assert build() == build()

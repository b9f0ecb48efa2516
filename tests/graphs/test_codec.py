"""GraphCompressor behaviour: round-trips, counters, registry, bomb guard."""

import pytest

from repro.codecs import get_codec
from repro.codecs.base import CorruptDataError, OutputLimitExceeded
from repro.graphs import registry as graph_registry
from repro.graphs import (
    GraphCompressor,
    TRAINED_GRAPHS,
    available_graphs,
    get_graph,
    register_graph,
)
from repro.graphs.samples import category_sample
from repro.graphs.trained import TRAINED_CATEGORIES


@pytest.mark.parametrize("category", TRAINED_CATEGORIES)
def test_trained_graph_roundtrips_its_category(category):
    data = category_sample(category, size=65536, seed=3)
    codec = GraphCompressor(category, TRAINED_GRAPHS[category])
    result = codec.compress(data, 1)
    assert result.ratio > 1.0, f"{category} graph failed to compress at all"
    back = codec.decompress(result.data)
    assert back.data == data


@pytest.mark.parametrize("category", TRAINED_CATEGORIES)
def test_trained_graph_roundtrips_foreign_data(category):
    """Graphs are total: any bytes round-trip, even the wrong category."""
    other = {"record": "text", "text": "float", "float": "record"}[category]
    data = category_sample(other, size=16384, seed=5)
    codec = GraphCompressor(category, TRAINED_GRAPHS[category])
    assert codec.decompress(codec.compress(data, 1).data).data == data


def test_compress_is_deterministic():
    data = category_sample("record", size=32768, seed=9)
    codec = GraphCompressor("record", TRAINED_GRAPHS["record"])
    assert codec.compress(data, 1).data == codec.compress(data, 1).data


def test_counters_account_transform_and_entropy_work():
    data = category_sample("record", size=32768, seed=1)
    result = GraphCompressor("record", TRAINED_GRAPHS["record"]).compress(data, 1)
    c = result.counters
    assert c.bytes_in == len(data)
    assert c.bytes_out == len(result.data)
    # the tokenize root saw every input byte once
    assert c.transform_bytes >= len(data)
    # leaf zlib work was merged up (record graph leaves are all zlib)
    assert c.entropy_symbols > 0 or c.literals_emitted > 0


def test_decompress_counters_mirror_transform_bytes():
    data = category_sample("record", size=16384, seed=2)
    codec = GraphCompressor("record", TRAINED_GRAPHS["record"])
    blob = codec.compress(data, 1).data
    back = codec.decompress(blob)
    assert back.counters.transform_bytes >= len(data)


def test_max_output_bytes_guards_frames():
    data = category_sample("record", size=32768, seed=4)
    codec = GraphCompressor("record", TRAINED_GRAPHS["record"])
    blob = codec.compress(data, 1).data
    with pytest.raises((CorruptDataError, OutputLimitExceeded)):
        codec.decompress(blob, max_output_bytes=128)
    # a permissive limit still round-trips
    assert codec.decompress(blob, max_output_bytes=len(data) * 2).data == data


def test_concatenated_containers_decode_like_every_other_codec():
    """Multi-frame convention: cat(compress(a), compress(b)) decodes to a+b.

    This is what lets the chunked parallel engine emit standard graph
    streams -- jobs=N output is containers back to back.
    """
    codec = GraphCompressor("record", TRAINED_GRAPHS["record"])
    a = category_sample("record", size=8192, seed=1)
    b = category_sample("record", size=8192, seed=2)
    blob = codec.compress(a, 1).data + codec.compress(b, 1).data
    assert codec.decompress(blob).data == a + b


def test_chunked_parallel_graph_stream_roundtrips():
    from repro.parallel import compress_chunked

    data = category_sample("record", size=65536, seed=8)
    one = compress_chunked("graph:record", data, 1, chunk_size=16384, jobs=1)
    two = compress_chunked("graph:record", data, 1, chunk_size=16384, jobs=2)
    assert one.data == two.data, "graph chunked output differs across --jobs"
    assert get_codec("graph:record").decompress(one.data).data == data


def test_empty_payload_is_corruption():
    codec = GraphCompressor("record", TRAINED_GRAPHS["record"])
    with pytest.raises(CorruptDataError, match="empty"):
        codec.decompress(b"")


def test_graph_codec_resolves_through_registry_prefix():
    """``get_codec("graph:<name>")`` is how the rest of the repo reaches us."""
    codec = get_codec("graph:record")
    data = category_sample("record", size=16384, seed=6)
    blob = codec.compress(data, 1).data
    assert get_codec("graph:record").decompress(blob).data == data


def test_dynamic_registration_lifecycle(monkeypatch):
    # a fresh runtime table, restored afterwards, scopes the registration
    monkeypatch.setattr(graph_registry, "_DYNAMIC", {})
    assert "tmp-test-graph" not in available_graphs()
    spec = {"kind": "leaf", "codec": "zstd", "level": 3}
    register_graph("tmp-test-graph", spec)
    assert "tmp-test-graph" in available_graphs()
    assert get_graph("tmp-test-graph") == spec
    codec = get_codec("graph:tmp-test-graph")
    assert codec.decompress(codec.compress(b"abc" * 100, 1).data).data == b"abc" * 100


def test_unknown_graph_name_raises_cleanly():
    from repro.codecs.base import CodecError

    with pytest.raises(CodecError):
        get_codec("graph:not-a-real-graph")


def test_nested_graph_leaf_rejected():
    from repro.graphs.model import GraphSpecError, validate_spec

    with pytest.raises(GraphSpecError, match="nest"):
        validate_spec({"kind": "leaf", "codec": "graph:record", "level": 1})

"""The engine's load-bearing property: jobs=1 and jobs=N are equivalent.

Byte-identical compressed output, identical merged StageCounters, and a
stream any plain serial decoder accepts -- checked for every codec. Corpora
are kept small (the codecs are pure Python); the ISSUE's 4 MiB acceptance
run lives in test_acceptance_large.py behind REPRO_ACCEPTANCE=1.
"""

import random

import pytest

from repro.codecs import available_codecs, get_codec, train_dictionary
from repro.codecs.base import CorruptDataError, OutputLimitExceeded
from repro.parallel import (
    SerialExecutor,
    compress_chunked,
    decompress_chunked,
    make_executor,
    resolve_jobs,
)

_CHUNK = 8192


def _corpus(size: int, seed: int = 4242) -> bytes:
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < size:
        if rng.random() < 0.6:
            out.extend(b"service=%d status=ok latency_us=%d\n" % (rng.randint(0, 99), rng.randint(10, 99999)))
        else:
            out.extend(rng.randbytes(rng.randint(1, 48)))
    return bytes(out[:size])


@pytest.fixture(scope="module")
def corpus():
    return _corpus(5 * _CHUNK + 137)


@pytest.mark.parametrize("codec_name", available_codecs())
def test_pool_output_byte_identical_to_serial(codec_name, corpus):
    codec = get_codec(codec_name)
    serial = compress_chunked(codec, corpus, 1, chunk_size=_CHUNK, jobs=1)
    pooled = compress_chunked(codec, corpus, 1, chunk_size=_CHUNK, jobs=4)
    assert serial.data == pooled.data
    assert serial.counters == pooled.counters
    assert serial.reports == tuple(
        r.__class__(r.index, r.raw_bytes, r.frame_bytes, s.seconds)
        for r, s in zip(pooled.reports, serial.reports)
    )  # reports match apart from wall-clock


@pytest.mark.parametrize("codec_name", available_codecs())
def test_serial_decoder_accepts_chunked_stream(codec_name, corpus):
    codec = get_codec(codec_name)
    chunked = compress_chunked(codec, corpus, 1, chunk_size=_CHUNK, jobs=4)
    assert chunked.chunk_count == 6
    assert codec.decompress(chunked.data).data == corpus


@pytest.mark.parametrize("codec_name", available_codecs())
def test_parallel_decode_matches_serial_decode(codec_name, corpus):
    codec = get_codec(codec_name)
    chunked = compress_chunked(codec, corpus, 1, chunk_size=_CHUNK, jobs=1)
    serial = codec.decompress(chunked.data)
    parallel = decompress_chunked(codec, chunked.data, jobs=4)
    assert parallel.data == serial.data == corpus
    assert parallel.counters == serial.counters


@pytest.mark.parametrize("codec_name", available_codecs())
def test_merged_counters_equal_sum_of_per_chunk_compress(codec_name, corpus):
    """Merging worker counters loses nothing vs compressing chunks inline."""
    codec = get_codec(codec_name)
    chunked = compress_chunked(codec, corpus, 1, chunk_size=_CHUNK, jobs=1)
    expected = None
    for start in range(0, len(corpus), _CHUNK):
        result = codec.compress(corpus[start : start + _CHUNK], 1)
        if expected is None:
            expected = result.counters
        else:
            expected.merge(result.counters)
    assert chunked.counters == expected


def test_counter_merge_order_is_chunk_order(corpus):
    """bytes_in/bytes_out track the full stream exactly."""
    chunked = compress_chunked("lz4", corpus, 1, chunk_size=_CHUNK, jobs=4)
    assert chunked.counters.bytes_in == len(corpus)
    assert chunked.counters.bytes_out == len(chunked.data)
    assert sum(r.raw_bytes for r in chunked.reports) == len(corpus)
    assert sum(r.frame_bytes for r in chunked.reports) == len(chunked.data)


def test_dictionary_chunked_roundtrip():
    zstd = get_codec("zstd")
    samples = [_corpus(300, seed=s) for s in range(20)]
    dictionary = train_dictionary(samples, max_size=2048).content
    data = _corpus(3 * _CHUNK)
    serial = compress_chunked(zstd, data, 3, dictionary=dictionary, chunk_size=_CHUNK, jobs=1)
    pooled = compress_chunked(zstd, data, 3, dictionary=dictionary, chunk_size=_CHUNK, jobs=2)
    assert serial.data == pooled.data
    assert zstd.decompress(serial.data, dictionary=dictionary).data == data
    assert decompress_chunked(zstd, serial.data, dictionary=dictionary, jobs=2).data == data


@pytest.mark.parametrize("size", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_boundary_sizes_match_serial(size):
    data = _corpus(size) if size else b""
    for codec_name in available_codecs():
        codec = get_codec(codec_name)
        serial = compress_chunked(codec, data, 1, chunk_size=_CHUNK, jobs=1)
        pooled = compress_chunked(codec, data, 1, chunk_size=_CHUNK, jobs=3)
        assert serial.data == pooled.data, (codec_name, size)
        assert codec.decompress(serial.data).data == data, (codec_name, size)


def test_single_chunk_equals_plain_compress(corpus):
    """One chunk => the stream is exactly the serial codec's frame."""
    for codec_name in available_codecs():
        codec = get_codec(codec_name)
        chunked = compress_chunked(codec, corpus, 1, chunk_size=1 << 20, jobs=2)
        assert chunked.chunk_count == 1
        assert chunked.data == codec.compress(corpus, 1).data, codec_name


def test_decompress_chunked_respects_output_limit(corpus):
    chunked = compress_chunked("zstd", corpus, 1, chunk_size=_CHUNK, jobs=1)
    with pytest.raises(OutputLimitExceeded):
        decompress_chunked("zstd", chunked.data, jobs=4, max_output_bytes=len(corpus) // 2)


class _SliceRecorder(bytes):
    """A payload that remembers the length of every slice taken of it."""

    def __new__(cls, data):
        self = super().__new__(cls, data)
        self.slice_lengths = []
        return self

    def __getitem__(self, key):
        piece = super().__getitem__(key)
        if isinstance(key, slice):
            self.slice_lengths.append(len(piece))
        return piece


@pytest.mark.parametrize("codec_name", ["zstd", "lz4"])
def test_frame_spans_walk_by_offset_without_copying_the_tail(codec_name):
    codec = get_codec(codec_name)
    data = _corpus(64 * 512, seed=64)
    chunked = compress_chunked(codec, data, 1, chunk_size=512, jobs=1)
    assert chunked.chunk_count == 64
    payload = _SliceRecorder(chunked.data)
    spans = codec.frame_spans(payload)
    # one span per frame, tiling the stream, each exactly one worker's frame
    assert [stop - start for start, stop in spans] == [
        report.frame_bytes for report in chunked.reports
    ]
    assert spans[0][0] == 0 and spans[-1][1] == len(payload)
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    # the walk reads header fields only: never a slice as long as a frame,
    # let alone the remaining tail once per frame
    assert max(payload.slice_lengths) <= 8
    assert decompress_chunked(codec, chunked.data, jobs=2).data == data


@pytest.mark.parametrize("codec_name", ["zlib", "gzip"])
def test_deflate_family_has_no_cheap_frame_boundaries(codec_name):
    codec = get_codec(codec_name)
    chunked = compress_chunked(codec, _corpus(4096), 6, chunk_size=1024, jobs=1)
    assert codec.frame_spans(chunked.data) is None


@pytest.mark.parametrize("codec_name", ["zstd", "lz4"])
def test_malformed_stream_falls_through_to_the_serial_decoder(codec_name, corpus):
    codec = get_codec(codec_name)
    chunked = compress_chunked(codec, corpus, 1, chunk_size=_CHUNK, jobs=1)
    for broken in (chunked.data[:-3], chunked.data + b"garbage"):
        with pytest.raises(CorruptDataError):
            codec.frame_spans(broken)
        with pytest.raises(CorruptDataError) as parallel:
            decompress_chunked(codec, broken, jobs=2)
        with pytest.raises(CorruptDataError) as serial:
            codec.decompress(broken)
        assert str(parallel.value) == str(serial.value)


def test_accepts_codec_name_or_instance(corpus):
    by_name = compress_chunked("gzip", corpus, 6, chunk_size=_CHUNK, jobs=1)
    by_instance = compress_chunked(get_codec("gzip"), corpus, 6, chunk_size=_CHUNK, jobs=1)
    assert by_name.data == by_instance.data


def test_explicit_executor_reuse(corpus):
    with make_executor(2) as executor:
        first = compress_chunked("lz4", corpus, 1, chunk_size=_CHUNK, executor=executor)
        second = compress_chunked("lz4", corpus, 1, chunk_size=_CHUNK, executor=executor)
    assert first.data == second.data


def test_resolve_jobs_defaults_to_cpu_count():
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    assert resolve_jobs(3) == 3


def test_serial_executor_is_in_order():
    assert SerialExecutor().map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

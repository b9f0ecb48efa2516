"""gzip container tests."""

import gzip as stdlib_gzip

import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs import CorruptDataError, get_codec


class TestGzipCodec:
    @pytest.fixture(scope="class")
    def codec(self):
        return get_codec("gzip")

    def test_roundtrip(self, codec, payloads):
        for name, data in payloads.items():
            for level in (0, 1, 6, 9):
                result = codec.compress(data, level)
                assert codec.decompress(result.data).data == data, (name, level)

    def test_stdlib_decodes_ours(self, codec, payloads):
        for data in payloads.values():
            blob = codec.compress(data, 6).data
            assert stdlib_gzip.decompress(blob) == data

    def test_we_decode_stdlib(self, codec, payloads):
        for data in payloads.values():
            blob = stdlib_gzip.compress(data, 6)
            assert codec.decompress(blob).data == data

    def test_we_decode_stdlib_with_filename(self, codec, tmp_path):
        # stdlib GzipFile writes FNAME; our parser must skip it.
        path = tmp_path / "named.txt"
        path.write_bytes(b"content with a name " * 50)
        gz_path = tmp_path / "named.txt.gz"
        with stdlib_gzip.open(gz_path, "wb") as handle:
            handle.write(path.read_bytes())
        assert codec.decompress(gz_path.read_bytes()).data == path.read_bytes()

    def test_deterministic_output(self, codec):
        data = b"deterministic " * 100
        assert codec.compress(data, 6).data == codec.compress(data, 6).data

    def test_crc_mismatch_detected(self, codec):
        blob = bytearray(codec.compress(b"x" * 500, 6).data)
        blob[-5] ^= 0xFF  # flip a CRC byte
        with pytest.raises(CorruptDataError):
            codec.decompress(bytes(blob))

    def test_bad_magic(self, codec):
        with pytest.raises(CorruptDataError):
            codec.decompress(b"\x1f\x8c" + b"\x00" * 20)

    def test_truncated(self, codec):
        blob = codec.compress(b"hello world " * 20, 6).data
        with pytest.raises(CorruptDataError):
            codec.decompress(blob[:12])


@settings(max_examples=20, deadline=None)
@given(st.binary(max_size=2000))
def test_gzip_interop_property(data):
    codec = get_codec("gzip")
    assert stdlib_gzip.decompress(codec.compress(data, 6).data) == data
    assert codec.decompress(stdlib_gzip.compress(data, 6)).data == data

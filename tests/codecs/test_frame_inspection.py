"""Zstd frame inspection tests."""

import pytest

from repro.codecs import CorruptDataError, get_codec, train_dictionary
from repro.codecs.zstd import inspect_frame


@pytest.fixture(scope="module")
def zstd():
    return get_codec("zstd")


class TestInspectFrame:
    def test_content_size(self, zstd):
        data = b"inspect me " * 100
        blob = zstd.compress(data, 3).data
        info = inspect_frame(blob)
        assert info.content_size == len(data)
        assert info.compressed_size == len(blob)

    def test_checksum_flag(self, zstd):
        info = inspect_frame(zstd.compress(b"x" * 100, 1).data)
        assert info.has_checksum

    def test_block_types_compressed(self, zstd):
        data = b"pattern " * 500
        info = inspect_frame(zstd.compress(data, 3).data)
        assert info.block_count == 1
        assert info.block_types == ("compressed",)

    def test_block_types_rle(self, zstd):
        info = inspect_frame(zstd.compress(b"a" * 10000, 3).data)
        assert info.block_types == ("rle",)

    def test_block_types_raw(self, zstd):
        import random

        rng = random.Random(3)
        noise = bytes(rng.getrandbits(8) for _ in range(2000))
        info = inspect_frame(zstd.compress(noise, 1).data)
        assert info.block_types == ("raw",)

    def test_multi_block_frame(self, zstd):
        from repro.codecs.zstd import params as zparams

        data = bytes((i * 7 + i // 251) & 0xFF for i in range(zparams.MAX_BLOCK_SIZE + 100))
        info = inspect_frame(zstd.compress(data, 1).data)
        assert info.block_count == 2

    def test_dict_id_present(self, zstd):
        dictionary = train_dictionary([b"sample data here " * 10] * 5, 1024)
        blob = zstd.compress(
            b"sample data here again", 3, dictionary=dictionary.content
        ).data
        info = inspect_frame(blob)
        assert info.dict_id == dictionary.dict_id

    def test_no_dict_id_without_dictionary(self, zstd):
        info = inspect_frame(zstd.compress(b"plain " * 50, 3).data)
        assert info.dict_id is None

    def test_window_log_recorded(self, zstd):
        info = inspect_frame(zstd.compress(b"w" * 5000, 3).data)
        assert 10 <= info.window_log <= 22

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptDataError):
            inspect_frame(b"XXXX" + b"\x00" * 20)

    def test_truncated_rejected(self, zstd):
        blob = zstd.compress(b"data " * 100, 3).data
        with pytest.raises(CorruptDataError):
            inspect_frame(blob[:8])

    def test_inspection_never_decodes(self, zstd):
        """Inspection must stay cheap: no decode counters are produced."""
        data = b"never decoded " * 1000
        blob = zstd.compress(data, 3).data
        info = inspect_frame(blob)
        assert info.content_size == len(data)  # got metadata without decode


class TestAsciiScatter:
    def test_renders_series(self):
        from repro.analysis import ascii_scatter

        text = ascii_scatter(
            {"zstd": [(100, 3.0), (50, 3.5)], "lz4": [(400, 2.0)]},
            width=30,
            height=8,
            x_label="MB/s",
            y_label="ratio",
        )
        assert "legend" in text
        assert "o=zstd" in text and "x=lz4" in text

    def test_log_axis(self):
        from repro.analysis import ascii_scatter

        text = ascii_scatter(
            {"s": [(10, 1.0), (1000, 2.0)]}, log_x=True, width=20, height=5
        )
        assert "(log)" in text

    def test_empty(self):
        from repro.analysis import ascii_scatter

        assert ascii_scatter({}) == "(no data)"

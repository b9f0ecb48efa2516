"""Dictionary training tests."""

import pytest

from repro.codecs import CorruptDataError, ZstdCompressor, train_dictionary
from repro.codecs.zstd.dictionary import CompressionDictionary, dictionary_id


def _typed_samples(count=100):
    return [
        b'{"type":"user","id":%d,"country":"US","flags":["a","b"],"score":%d}'
        % (i, i * 13 % 100)
        for i in range(count)
    ]


class TestTrainDictionary:
    def test_empty_samples_give_empty_dictionary(self):
        assert len(train_dictionary([])) == 0

    def test_respects_max_size(self):
        dictionary = train_dictionary(_typed_samples(), max_size=1024)
        assert len(dictionary) <= 1024

    def test_captures_common_substrings(self):
        dictionary = train_dictionary(_typed_samples(), max_size=2048)
        assert b'"country":"US"' in dictionary.content

    def test_deterministic(self):
        samples = _typed_samples()
        assert (
            train_dictionary(samples, 2048).content
            == train_dictionary(samples, 2048).content
        )

    def test_dict_id_depends_on_content(self):
        d1 = train_dictionary(_typed_samples(), 1024)
        d2 = train_dictionary([b"totally different content " * 30], 1024)
        assert d1.dict_id != d2.dict_id

    def test_unique_content_yields_small_dictionary(self):
        import random

        rng = random.Random(5)
        samples = [
            bytes(rng.getrandbits(8) for _ in range(120)) for _ in range(30)
        ]
        dictionary = train_dictionary(samples, max_size=4096)
        # Nothing repeats across random samples, so little is worth keeping.
        assert len(dictionary) < 4096


class TestDictionaryEffectiveness:
    def test_ratio_improvement_on_small_typed_items(self):
        """The Fig. 10/11 headline: dictionaries beat plain compression on
        small items at every level."""
        zstd = ZstdCompressor()
        samples = _typed_samples(200)
        dictionary = train_dictionary(samples[:150], max_size=8192)
        test_items = samples[150:]
        for level in (1, 3, 6, 11):
            plain = sum(len(zstd.compress(i, level).data) for i in test_items)
            dicted = sum(
                len(zstd.compress(i, level, dictionary=dictionary.content).data)
                for i in test_items
            )
            assert dicted < plain, f"level {level}"

    def test_roundtrip_through_trained_dictionary(self):
        zstd = ZstdCompressor()
        samples = _typed_samples(80)
        dictionary = train_dictionary(samples, max_size=4096)
        for item in samples[:10]:
            blob = zstd.compress(item, 3, dictionary=dictionary.content)
            assert (
                zstd.decompress(blob.data, dictionary=dictionary.content).data
                == item
            )

    def test_compression_dictionary_len(self):
        d = CompressionDictionary(b"abc")
        assert len(d) == 3


class TestDictionaryIdMemo:
    def test_wrong_dictionary_rejected_after_right_one_was_cached(self):
        """The id memo is keyed by content: a different dictionary of the
        same length must still fail the stored-id check."""
        zstd = ZstdCompressor()
        right = train_dictionary(_typed_samples(80), max_size=2048).content
        wrong = bytes([right[0] ^ 1]) + right[1:]
        assert len(wrong) == len(right)
        blob = zstd.compress(_typed_samples(1)[0], 3, dictionary=right).data
        # both directions hash `right` first, so its id is memoised by now
        assert zstd.decompress(blob, dictionary=right).data == _typed_samples(1)[0]
        with pytest.raises(CorruptDataError, match="dictionary mismatch"):
            zstd.decompress(blob, dictionary=wrong)
        # and the matching dictionary keeps working afterwards
        assert zstd.decompress(blob, dictionary=right).data == _typed_samples(1)[0]

    def test_memo_is_bounded_and_hits_on_equal_content(self):
        dictionary_id.cache_clear()
        content = b"shared history " * 64
        first = dictionary_id(content)
        assert dictionary_id(bytes(bytearray(content))) == first
        info = dictionary_id.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize is not None
        assert CompressionDictionary(content).dict_id == first

"""From-scratch lossless compression codecs.

This package implements the three compressor families the paper measures in
Meta's fleet -- an LZ4-style byte-aligned codec, a Zstandard-style codec
(Huffman-coded literals + FSE-coded sequences), and a DEFLATE/zlib codec --
on top of a shared LZ77 match-finding layer and shared entropy coders.

The codecs are structured exactly the way the paper describes production LZ
compressors (Section II-B): a *match-finding stage* that emits literals and
sequences, followed by an *entropy-encoding stage* that serializes them. Both
stages report instrumentation counters that the performance model
(:mod:`repro.perfmodel`) converts into modeled datacenter-core throughput.
"""

from repro.lazy import lazy_exports

# each codec module registers itself with the ``get_codec`` table on import
from repro.codecs.deflate import codec as _deflate_codec  # noqa: F401
from repro.codecs.lz4 import codec as _lz4_codec  # noqa: F401
from repro.codecs.zstd import codec as _zstd_codec  # noqa: F401

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.codecs.base": (
            "CodecError",
            "Compressor",
            "CorruptDataError",
            "OutputLimitExceeded",
            "StageCounters",
            "available_codecs",
            "get_codec",
            "register_codec",
        ),
        "repro.codecs.deflate.codec": ("GzipCompressor", "ZlibCompressor"),
        "repro.codecs.lz4.codec": ("LZ4Compressor",),
        "repro.codecs.zstd.codec": ("ZstdCompressor",),
        "repro.codecs.zstd.dictionary": ("CompressionDictionary", "train_dictionary"),
    },
)

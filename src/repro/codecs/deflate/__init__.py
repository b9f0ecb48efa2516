"""DEFLATE/zlib codec.

A genuine RFC 1951 DEFLATE implementation (stored, fixed-Huffman, and
dynamic-Huffman blocks) wrapped in the RFC 1950 zlib container with an
Adler-32 checksum. The bit stream is byte-compatible with the reference
zlib library, which the test suite exploits by round-tripping against
``import zlib`` as an independent oracle.

The paper groups Zlib with the "non-LZ" compressors only in the sense that
it predates the modern LZ4/Zstd family; structurally it is LZ77 + Huffman,
and it is kept in Meta's fleet for backward compatibility (Section II-B).
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.codecs.deflate.codec": ("GzipCompressor", "ZlibCompressor"),
    },
)

"""Zstandard-style codec.

Implements the two-stage structure the paper describes for Zstd (Section
II-B): an LZ match-finding stage selected by the compression level, followed
by an entropy stage that Huffman-codes the literals and codes the sequences
(literal lengths, match lengths, offsets) with Finite State Entropy. Levels
span -5..22 like the real library: negative levels trade ratio for speed via
scan acceleration, high levels use dynamic-programming parsing.

The frame format is this project's own (not byte-compatible with RFC 8478),
but the sequence code tables follow the RFC's baselines/extra-bits exactly,
and dictionary compression (shared history trained from samples) is
supported the way Managed Compression uses it.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.codecs.zstd.codec": ("FrameInfo", "ZstdCompressor", "inspect_frame"),
    },
)

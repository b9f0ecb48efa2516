"""Entropy-coding primitives shared by the codecs.

The paper attributes the compression-ratio / decompression-speed trade-off to
the entropy stage (Section II-B): LZ4 skips entropy coding entirely, DEFLATE
uses Huffman codes, and Zstandard uses Huffman for literals plus Finite State
Entropy (tANS) for sequence codes. All three schemes are implemented here.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.codecs.entropy.bitio": ("BitReader", "BitWriter"),
        "repro.codecs.entropy.fse": ("FSEDecoder", "FSEEncoder", "normalize_counts"),
        "repro.codecs.entropy.huffman": (
            "HuffmanDecoder",
            "HuffmanEncoder",
            "build_code_lengths",
        ),
    },
)

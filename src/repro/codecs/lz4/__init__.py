"""LZ4-style codec: byte-aligned LZ encoding with no entropy stage.

The paper singles out LZ4 as "a simple and fast encoder that emits
uncompressed literals" followed by "byte-aligned variable-length integers"
(Section II-B) -- maximizing decompression speed at the cost of ratio. The
block encoding here is the genuine LZ4 block format (nibble tokens, 255-run
length extensions, two-byte little-endian offsets); the frame wrapper is our
own minimal container with an XXH32 content checksum.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.codecs.lz4.codec": ("LZ4Compressor",),
    },
)

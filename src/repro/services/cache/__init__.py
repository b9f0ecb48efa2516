"""CACHE1/CACHE2: distributed memory object caching with item compression.

"Caches need to offer fast random access to their contents, so when they
offer compression, they compress each item individually. ... Compressing
items individually means that the item can be sent compressed over the
network to the client without decompressing on the server-side, saving both
CPU and network. ... we can group items by their type and provide one
dictionary per data type" (Section IV-C).
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.services.cache.client": ("CacheClient",),
        "repro.services.cache.server": ("CacheServer", "CacheStats"),
    },
)

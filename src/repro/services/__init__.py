"""Service substrates: the systems behind Table I.

Each substrate is a minimal but faithful implementation of the service
architecture the paper characterizes, exercising the same compression call
sites: block-granular SST compression in the LSM key-value store, per-item
dictionary compression in the caches, ORC-style columnar blocks in the data
warehouse, and request payload compression in the ads inference tier.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.services.ads.service": ("AdsInferenceService", "AdsRequestStats"),
        "repro.services.cache.client": ("CacheClient",),
        "repro.services.cache.server": ("CacheServer", "CacheStats"),
        "repro.services.catalog": ("SERVICE_CATALOG", "ServiceInfo"),
        "repro.services.farmemory": ("FarMemoryPool", "FarMemoryStats"),
        "repro.services.kvstore.db": ("KVStore",),
        "repro.services.kvstore.sst": ("KVStoreStats",),
        "repro.services.managed": ("ManagedBlob", "ManagedCompression"),
        "repro.services.rpc": ("Channel", "RpcStats"),
        "repro.services.warehouse.orc": ("OrcReader", "OrcWriter"),
        "repro.services.warehouse.workflows": (
            "IngestionJob",
            "MLDataJob",
            "ShuffleJob",
            "SparkJob",
            "WorkflowReport",
        ),
    },
)

"""Synthetic data generators standing in for closed production data.

Every generator is deterministic given its seed and reproduces the
*statistical* properties the paper identifies as driving compression
behaviour: redundancy structure for the Silesia-like corpus, sparse/dense
embedding mixes for ads requests, strongly-skewed small typed items for
caches, and low-cardinality columnar data for the warehouse (DESIGN.md
section 1.3).
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.corpus.binary": ("generate_binary",),
        "repro.corpus.cache_items": (
            "CACHE1_TYPES",
            "CACHE2_TYPES",
            "ItemTypeSpec",
            "generate_cache_items",
        ),
        "repro.corpus.distributions": ("SeededSampler",),
        "repro.corpus.embeddings": (
            "ADS_MODELS",
            "AdsModelSpec",
            "generate_ads_request",
        ),
        "repro.corpus.kvdata": ("generate_kv_records",),
        "repro.corpus.logs": ("generate_logs",),
        "repro.corpus.orcdata": ("ColumnSpec", "generate_table"),
        "repro.corpus.records": ("generate_records",),
        "repro.corpus.silesia": ("SILESIA_FILES", "silesia_like_corpus"),
        "repro.corpus.telemetry": ("generate_telemetry",),
        "repro.corpus.textgen": ("generate_text",),
        "repro.corpus.xmlgen": ("generate_xml",),
    },
)

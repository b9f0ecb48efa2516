"""Data Warehouse substrate: ORC-like columnar storage plus DW1-4 workflows.

"Data Warehouse ... stores data in a columnar format called Optimized Row
Columnar (ORC). Columns get encoded by the storage engine and then passed to
Zstd in blocks of up to 256KB. Nearly all compression usage in Data
Warehouse services is driven by reading and writing ORC files"
(Section IV-B).
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.services.warehouse.orc": (
            "OrcReader",
            "OrcWriter",
            "decode_column",
            "encode_column",
        ),
        "repro.services.warehouse.workflows": (
            "IngestionJob",
            "MLDataJob",
            "ShuffleJob",
            "SparkJob",
            "WorkflowReport",
        ),
    },
)

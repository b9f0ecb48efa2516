"""repro: a reproduction of "Characterization of Data Compression in
Datacenters" (ISPASS 2023).

The package is organized bottom-up:

- :mod:`repro.codecs` -- from-scratch LZ4-, Zstandard-, and DEFLATE-style
  codecs built on shared match finders and entropy coders, with per-stage
  instrumentation counters.
- :mod:`repro.perfmodel` -- a calibrated machine model turning counters into
  modeled datacenter-core throughput, plus the accelerator (gamma) model.
- :mod:`repro.corpus` -- synthetic data generators standing in for closed
  production data (Silesia-like files, ads embeddings, cache items, ...).
- :mod:`repro.services` -- the service substrates of Table I: an LSM
  key-value store, an object cache with per-type dictionaries, an ORC-like
  data warehouse with the DW1-4 workflows, and an ads inference tier.
- :mod:`repro.fleet` -- the synthetic fleet registry, sampling profiler,
  and the aggregation pipeline behind the fleet-level figures.
- :mod:`repro.core` -- **CompOpt**, the paper's contribution: CompEngine,
  the cost model (equations 1-4), requirements, search strategies, and
  CompSim accelerator evaluation.
- :mod:`repro.analysis` -- distribution summaries and report rendering.

Quickstart::

    from repro import CompEngine, CompOpt, CostModel, CostParameters
    from repro.core.config import config_grid

    engine = CompEngine(samples=[b"..." * 1000])
    model = CostModel(CostParameters.from_price_book(beta=1e-6))
    best = CompOpt(engine, model).optimize(config_grid(["zstd", "lz4"])).best
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.codecs.base": ("Compressor", "available_codecs", "get_codec"),
        "repro.codecs.deflate.codec": ("GzipCompressor", "ZlibCompressor"),
        "repro.codecs.lz4.codec": ("LZ4Compressor",),
        "repro.codecs.zstd.codec": ("ZstdCompressor",),
        "repro.codecs.zstd.dictionary": ("CompressionDictionary", "train_dictionary"),
        "repro.core.autotuner": ("AutoTuner",),
        "repro.core.compsim": ("CompSim",),
        "repro.core.config": ("CompressionConfig",),
        "repro.core.constraints": ("MaxBlockDecodeLatency", "MinCompressionSpeed"),
        "repro.core.costmodel": ("CostModel", "CostParameters"),
        "repro.core.engine": ("CompEngine",),
        "repro.core.metrics": ("CompressionMetrics",),
        "repro.core.optimizer": ("CompOpt",),
        "repro.perfmodel.accelerator": ("HardwareAccelerator",),
        "repro.perfmodel.machine": ("DEFAULT_MACHINE", "MachineModel"),
    },
)
__all__.append("__version__")

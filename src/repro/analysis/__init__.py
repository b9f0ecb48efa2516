"""Analysis helpers: distributions and report rendering for the benches."""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.distributions": (
            "log2_histogram",
            "percentile",
            "size_bucket_label",
            "summarize_sizes",
        ),
        "repro.analysis.plots": ("ascii_scatter",),
        "repro.analysis.reporting": ("format_series", "format_table"),
    },
)

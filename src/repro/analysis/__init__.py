"""Analysis helpers: distributions and report rendering for the benches."""

from repro.analysis.distributions import (
    log2_histogram,
    percentile,
    size_bucket_label,
    summarize_sizes,
)
from repro.analysis.reporting import format_series, format_table
from repro.analysis.plots import ascii_scatter

__all__ = [
    "percentile",
    "log2_histogram",
    "size_bucket_label",
    "summarize_sizes",
    "format_table",
    "format_series",
    "ascii_scatter",
]

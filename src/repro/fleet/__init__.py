"""Fleet-level profiling simulation (Section III).

Meta's fleet characterization comes from a continuous profiler sampling
application call stacks across hundreds of thousands of servers for 30 days,
then filtering the stacks for compression APIs. That infrastructure and its
data are closed, so this package substitutes a synthetic fleet: a registry
of service profiles whose compression behaviour (algorithm mix, level mix,
compression/decompression split, block sizes) is drawn around the paper's
published aggregates, plus a sampling profiler and the aggregation pipeline
that turns raw call-stack samples back into the fleet-level views of
Figs 2-5.

Figures regenerated from this package are *calibrated* (the published
aggregates are encoded in the registry) rather than *emergent*; the
service-level figures (6-13) are emergent from the real substrates. See
DESIGN.md section 1.5.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.fleet.callstack": ("CallStackSample", "parse_frame"),
        "repro.fleet.characterization": ("FleetCharacterization", "characterize"),
        "repro.fleet.profiler": ("SamplingProfiler",),
        "repro.fleet.profiles": ("DEFAULT_FLEET", "ServiceProfile"),
        "repro.fleet.sweep": (
            "CellMeasurement",
            "MeasurementCell",
            "fleet_measurement_cells",
            "format_fleet_sweep",
            "measure_cell",
            "run_fleet_sweep",
        ),
    },
)

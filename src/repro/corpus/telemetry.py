"""Float64 telemetry time series (a numeric file class).

Metrics pipelines store wide arrays of slowly drifting doubles; raw IEEE
bytes compress poorly with general LZ (high-entropy mantissas) but the
repeated exponent/high-mantissa bytes of a drifting series still yield
some structure -- the regime between text and random binary in Fig. 1.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.distributions import SeededSampler

#: interleaved series per file
_SERIES = 4


def generate_telemetry(size: int, seed: int = 0) -> bytes:
    """Interleaved drifting time series, ``size`` bytes of raw float64."""
    sampler = SeededSampler(seed)
    count = max(_SERIES, size // 8)
    per_series = count // _SERIES + 1
    columns = []
    for index in range(_SERIES):
        base = sampler.uniform(10.0, 1000.0)
        drift = sampler.rng.normal(0.0, 0.01, size=per_series).cumsum()
        noise = sampler.rng.normal(0.0, 0.002, size=per_series)
        # Quantize like metric pipelines do: fixed decimal precision.
        values = np.round(base * (1.0 + drift + noise), 3)
        columns.append(values)
    interleaved = np.stack(columns, axis=1).reshape(-1)
    return interleaved.astype("<f8").tobytes()[:size]

"""Seeded samplers for the size/frequency distributions the paper reports."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: the skew of :meth:`SeededSampler.zipf_indices`
_ZIPF_EXPONENT = 1.1
#: the smallest size :meth:`SeededSampler.lognormal_sizes` draws
_MIN_SIZE = 16


class SeededSampler:
    """Thin deterministic wrapper over numpy's Generator.

    All corpus generators draw through one of these so that every experiment
    in the repository is reproducible from its seed.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def zipf_indices(self, count: int, vocabulary: int) -> np.ndarray:
        """``count`` indices in ``[0, vocabulary)`` with Zipf-like skew."""
        weights = 1.0 / np.power(np.arange(1, vocabulary + 1), _ZIPF_EXPONENT)
        weights /= weights.sum()
        return self._rng.choice(vocabulary, size=count, p=weights)

    def lognormal_sizes(
        self,
        count: int,
        median: float,
        sigma: float = 1.0,
        maximum: int = 1 << 20,
    ) -> List[int]:
        """Log-normal sizes: small-item mode with a long tail (Figs 8-9)."""
        raw = self._rng.lognormal(mean=np.log(median), sigma=sigma, size=count)
        return [int(min(max(v, _MIN_SIZE), maximum)) for v in raw]

    def bytes(self, count: int) -> bytes:
        return self._rng.integers(0, 256, size=count, dtype=np.uint8).tobytes()

    def integers(self, low: int, high: int, count: int) -> np.ndarray:
        return self._rng.integers(low, high, size=count)

    def choice(self, options: Sequence, count: int = 1) -> list:
        indices = self._rng.integers(0, len(options), size=count)
        return [options[i] for i in indices]

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def shuffled(self, items: Sequence) -> list:
        order = self._rng.permutation(len(items))
        return [items[i] for i in order]

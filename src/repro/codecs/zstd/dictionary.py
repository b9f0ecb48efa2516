"""Dictionary training and dictionary-based compression helpers.

The paper (Section II-B, IV-C) describes LZ dictionaries as shared history
"constructed ahead of time from sample data", capturing inter-message
repetitions of small typed items, and communicated out-of-band the way
Managed Compression does. This module implements a COVER-style trainer: it
scores fixed-size segments of the training samples by how many k-mer
occurrences they cover across the corpus and concatenates the best
non-overlapping segments up to the dictionary capacity, most valuable
content last (closest to the window).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence

from repro.codecs.checksum import xxh32

_KMER = 8
_SEGMENT = 64
#: training looks at this much of each sample
_MAX_SAMPLE_BYTES = 4096


@lru_cache(maxsize=32)
def dictionary_id(content: bytes) -> int:
    """The identifier frames carry for a dictionary: XXH32 of its bytes.

    A cache item is a few hundred bytes and its dictionary several
    kilobytes, so hashing the dictionary on every call would cost more than
    the call. The memo is keyed by content and bounded: a different
    dictionary of the same length never shares an entry.
    """
    return xxh32(content)


@dataclass(frozen=True)
class CompressionDictionary:
    """Trained shared history plus its identifier.

    Pass ``content`` as the ``dictionary=`` argument of codec calls; the
    ``dict_id`` travels in frames so decoders can detect mismatches.
    """

    content: bytes

    @property
    def dict_id(self) -> int:
        return dictionary_id(self.content)

    def __len__(self) -> int:
        return len(self.content)


def _document_frequencies(samples: Sequence[bytes]) -> Dict[bytes, int]:
    """How many samples each k-mer appears in (distinct per sample)."""
    frequencies: Dict[bytes, int] = {}
    for sample in samples:
        seen = set()
        for pos in range(0, max(0, len(sample) - _KMER + 1)):
            seen.add(sample[pos : pos + _KMER])
        for key in seen:
            frequencies[key] = frequencies.get(key, 0) + 1
    return frequencies


def _distinct_kmers(sample: bytes) -> set:
    return {
        sample[pos : pos + _KMER]
        for pos in range(0, max(0, len(sample) - _KMER + 1))
    }


def train_dictionary(
    samples: Iterable[bytes],
    max_size: int = 16384,
) -> CompressionDictionary:
    """Build a dictionary of up to ``max_size`` bytes from ``samples``.

    Greedy maximum-coverage over whole samples (COVER's objective at sample
    granularity): repeatedly pick the sample whose not-yet-covered k-mers
    have the highest total document frequency, until the dictionary is
    full. Whole samples preserve message structure -- field skeletons,
    key orders, enum values -- which is what inter-message LZ matches
    actually hit. Long samples are truncated to 4 KiB.
    """
    # No sample may exceed the dictionary itself, or nothing would fit.
    sample_cap = min(_MAX_SAMPLE_BYTES, max_size)
    sample_list = [bytes(s)[:sample_cap] for s in samples if s]
    if not sample_list:
        return CompressionDictionary(b"")
    frequencies = _document_frequencies(sample_list)

    candidates = [
        (index, sample, _distinct_kmers(sample))
        for index, sample in enumerate(sample_list)
        if len(sample) >= _KMER
    ]
    covered: set = set()
    chosen: List[bytes] = []
    used = 0
    chosen_contents = set()
    while candidates and used < max_size - _KMER:
        best = None
        best_score = 0.0
        for entry in candidates:
            __, sample, kmers = entry
            if used + len(sample) > max_size:
                continue
            gain = sum(
                frequencies[key] for key in kmers if key not in covered
            )
            # Normalize by size so a short sample covering the common core
            # beats a long one padded with unique filler.
            score = gain / (len(sample) + _SEGMENT)
            if score > best_score:
                best_score = score
                best = entry
        if best is None or best_score <= 0:
            break
        index, sample, kmers = best
        candidates.remove(best)
        if sample in chosen_contents:
            continue
        chosen_contents.add(sample)
        chosen.append(sample)
        covered.update(kmers)
        used += len(sample)
    # Most valuable content goes last (closest to the compressed data).
    chosen.reverse()
    return CompressionDictionary(b"".join(chosen))

"""Dictionary training and dictionary-based compression helpers.

The paper (Section II-B, IV-C) describes LZ dictionaries as shared history
"constructed ahead of time from sample data", capturing inter-message
repetitions of small typed items, and communicated out-of-band the way
Managed Compression does. This module implements a COVER-style trainer: it
scores whole training samples by the document frequency of the k-mers they
cover that no chosen sample covers yet, and concatenates the best samples
up to the dictionary capacity, most valuable content last (closest to the
window).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, List

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

    The greedy is lazy and exact: a sample's score only falls as coverage
    grows, so a heap of score bounds re-scores only its top entry, and a
    top whose bound is fresh is the sample the plain greedy would pick (the
    highest score, the lowest index on a tie).
    """
    # No sample may exceed the dictionary itself, or nothing would fit.
    sample_cap = min(_MAX_SAMPLE_BYTES, max_size)
    sample_list = [bytes(s)[:sample_cap] for s in samples if s]
    if not sample_list:
        return CompressionDictionary(b"")
    kmer_sets = [_distinct_kmers(sample) for sample in sample_list]
    # document frequency: how many samples each k-mer appears in
    frequencies = Counter(chain.from_iterable(kmer_sets))

    covered: set = set()

    def score(index: int) -> float:
        gain = sum(map(frequencies.__getitem__, kmer_sets[index] - covered))
        # Normalize by size so a short sample covering the common core
        # beats a long one padded with unique filler.
        return gain / (len(sample_list[index]) + _SEGMENT)

    chosen: List[bytes] = []
    # (-score bound, index, picks when scored): a bound is exact while no
    # sample has been picked since it was scored
    heap = [
        (-score(index), index, 0)
        for index, sample in enumerate(sample_list)
        if len(sample) >= _KMER
    ]
    heapq.heapify(heap)
    used = 0
    chosen_contents = set()
    while heap and used < max_size - _KMER:
        bound, index, scored_at = heap[0]
        sample = sample_list[index]
        if used + len(sample) > max_size:
            heapq.heappop(heap)  # ``used`` only grows: it never fits again
            continue
        if scored_at != len(chosen):
            heapq.heapreplace(heap, (-score(index), index, len(chosen)))
            continue
        if bound >= 0:
            break
        heapq.heappop(heap)
        if sample in chosen_contents:
            continue
        chosen_contents.add(sample)
        chosen.append(sample)
        covered.update(kmer_sets[index])
        used += len(sample)
    # Most valuable content goes last (closest to the compressed data).
    chosen.reverse()
    return CompressionDictionary(b"".join(chosen))

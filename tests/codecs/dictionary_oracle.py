"""The plain greedy dictionary trainer: the oracle for the lazy one.

This is :func:`repro.codecs.zstd.dictionary.train_dictionary` as it was
before it kept a heap of score bounds: every round re-scores every
candidate against the covered k-mers and takes the highest score, the
lowest index on a tie. It returns the dictionary's bytes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.codecs.zstd.dictionary import _KMER, _MAX_SAMPLE_BYTES, _SEGMENT


def _document_frequencies(samples: Sequence[bytes]) -> Dict[bytes, int]:
    frequencies: Dict[bytes, int] = {}
    for sample in samples:
        for key in _distinct_kmers(sample):
            frequencies[key] = frequencies.get(key, 0) + 1
    return frequencies


def _distinct_kmers(sample: bytes) -> set:
    return {
        sample[pos : pos + _KMER]
        for pos in range(0, max(0, len(sample) - _KMER + 1))
    }


def greedy_dictionary(samples: Iterable[bytes], max_size: int = 16384) -> bytes:
    sample_cap = min(_MAX_SAMPLE_BYTES, max_size)
    sample_list = [bytes(s)[:sample_cap] for s in samples if s]
    if not sample_list:
        return b""
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
            gain = sum(frequencies[key] for key in kmers if key not in covered)
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
    chosen.reverse()
    return b"".join(chosen)

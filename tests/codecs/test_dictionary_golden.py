"""Trained dictionaries do not move: pins plus a greedy oracle.

``dictionary_golden.json`` holds the sha256 of every dictionary
:func:`train_dictionary` builds from the CACHE1 item types at seeds 1-3
and capacities 1, 4 and 8 KiB (the cache and ``codec_small`` training
sets), generated with the plain greedy trainer. The Hypothesis test
checks the trainer against that greedy trainer
(``dictionary_oracle.greedy_dictionary``) on small random sample sets with
duplicates and samples shorter than a k-mer.

Regenerate (only when a change of the trained bytes is *intended*)::

    PYTHONPATH=src python tests/codecs/test_dictionary_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictionary_oracle import greedy_dictionary
from repro.codecs.zstd.dictionary import train_dictionary
from repro.corpus.cache_items import CACHE1_TYPES, generate_cache_items

PINS_PATH = Path(__file__).with_name("dictionary_golden.json")
SEEDS = (1, 2, 3)
CAPACITIES = (1024, 4096, 8192)
#: items per training set, as many as ``codec_small`` trains on
ITEMS = 320


def _training_sets(seed: int) -> Dict[str, List[bytes]]:
    by_type: Dict[str, List[bytes]] = {}
    for type_name, payload in generate_cache_items(CACHE1_TYPES, ITEMS, seed=seed):
        by_type.setdefault(type_name, []).append(payload)
    return by_type


def _digests() -> Dict[str, str]:
    out = {}
    for seed in SEEDS:
        for type_name, samples in sorted(_training_sets(seed).items()):
            for capacity in CAPACITIES:
                content = train_dictionary(samples, capacity).content
                key = f"{type_name}/seed{seed}/{capacity}"
                out[key] = hashlib.sha256(content).hexdigest()
    return out


def test_trained_dictionaries_match_the_pins():
    pins = json.loads(PINS_PATH.read_text())
    assert _digests() == pins


#: short alphabets so samples share k-mers; some repeat whole samples
_samples = st.lists(
    st.one_of(
        st.binary(max_size=7),
        st.text("abc{}:,\"", min_size=8, max_size=120).map(str.encode),
        st.sampled_from([b'{"k":"v","n":1}', b'{"k":"v","n":2}', b"abcabcabcabc"]),
    ),
    max_size=24,
)


@settings(max_examples=200, deadline=None)
@given(samples=_samples, max_size=st.integers(min_value=0, max_value=600))
def test_trainer_matches_the_greedy_oracle(samples, max_size):
    assert train_dictionary(samples, max_size).content == greedy_dictionary(
        samples, max_size
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_dictionary_golden.py --write")
    PINS_PATH.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")

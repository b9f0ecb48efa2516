"""Level tables and sequence code alphabets for the Zstd-style codec.

The literal-length and match-length code tables are the RFC 8478 ones;
offsets use the pure power-of-two code (``code = floor(log2(offset))``)
without repcodes -- a documented simplification (DESIGN.md section 3).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.codecs.entropy.fse import normalize_counts
from repro.codecs.matchfinders.base import MatchFinderParams

MIN_MATCH = 3
MAX_BLOCK_SIZE = 1 << 17  # 128 KiB, as in the real format

# --------------------------------------------------------------------------
# Sequence code tables (code -> (baseline, extra_bits)).

_LL_EXTRA = [0] * 16 + [1, 1, 1, 1, 2, 2, 3, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]
_LL_BASELINES = list(range(16)) + [
    16, 18, 20, 22, 24, 28, 32, 40,
    48, 64, 128, 256, 512, 1024, 2048, 4096,
    8192, 16384, 32768, 65536,
]

_ML_EXTRA = [0] * 32 + [1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]
_ML_BASELINES = [code + MIN_MATCH for code in range(32)] + [
    35, 37, 39, 41, 43, 47, 51, 59,
    67, 83, 99, 131, 259, 515, 1027, 2051,
    4099, 8195, 16387, 32771, 65539,
]

MAX_OFFSET_CODE = 26  # offsets < 2**27 -- beyond any window this codec uses
_OF_EXTRA = list(range(MAX_OFFSET_CODE + 1))
_OF_BASELINES = [1 << code for code in range(MAX_OFFSET_CODE + 1)]

LL_TABLE: List[Tuple[int, int]] = list(zip(_LL_BASELINES, _LL_EXTRA))
ML_TABLE: List[Tuple[int, int]] = list(zip(_ML_BASELINES, _ML_EXTRA))
OF_TABLE: List[Tuple[int, int]] = list(zip(_OF_BASELINES, _OF_EXTRA))


def _code_for(value: int, table: List[Tuple[int, int]]) -> int:
    """Largest code whose baseline does not exceed ``value``."""
    low, high = 0, len(table) - 1
    while low < high:
        mid = (low + high + 1) // 2
        if table[mid][0] <= value:
            low = mid
        else:
            high = mid - 1
    return low


def ll_code(literal_length: int) -> int:
    return literal_length if literal_length < 16 else _code_for(literal_length, LL_TABLE)


def ml_code(match_length: int) -> int:
    if match_length < MIN_MATCH:
        raise ValueError(f"match length {match_length} below minimum {MIN_MATCH}")
    return (match_length - MIN_MATCH) if match_length < 32 + MIN_MATCH else _code_for(match_length, ML_TABLE)


# The encoder's code lookups. Past the end of each table the baselines
# double, so a code is a bit length: ``min(length.bit_length() + 18, 35)``
# for a literal length from 64 on, ``(length - 3).bit_length() + 35`` for
# a match length from 131 on, and ``offset.bit_length() - 1`` for every
# offset. Lengths the encoder rejects (matches below MIN_MATCH) read 0.

#: ``ll_code`` of every literal length below 64
LL_CODES = bytes(ll_code(length) for length in range(64))
#: ``ml_code`` of every match length below 131
ML_CODES = bytes(MIN_MATCH) + bytes(ml_code(length) for length in range(MIN_MATCH, 131))


# --------------------------------------------------------------------------
# Predefined FSE distributions (used when a custom table would not pay off).
# Deterministic, shared by encoder and decoder; geometric-ish weights favor
# small codes the way the RFC default tables do.

PREDEFINED_LL_LOG = 6
PREDEFINED_ML_LOG = 6
PREDEFINED_OF_LOG = 5


def _geometric_counts(alphabet: int, half_life: float) -> List[int]:
    return [max(1, int(4096 * 0.5 ** (code / half_life))) for code in range(alphabet)]


PREDEFINED_LL_NORM = normalize_counts(_geometric_counts(len(LL_TABLE), 4.0), PREDEFINED_LL_LOG)
PREDEFINED_ML_NORM = normalize_counts(_geometric_counts(len(ML_TABLE), 6.0), PREDEFINED_ML_LOG)
PREDEFINED_OF_NORM = normalize_counts(
    [max(1, int(4096 * 0.5 ** (abs(code - 10) / 6.0))) for code in range(len(OF_TABLE))],
    PREDEFINED_OF_LOG,
)

# --------------------------------------------------------------------------
# Level table: -5..22, mirroring the strategy ladder of the real library.

MIN_LEVEL = -5
MAX_LEVEL = 22


def _build_level_params() -> Dict[int, MatchFinderParams]:
    params: Dict[int, MatchFinderParams] = {}
    for level in range(MIN_LEVEL, 0):
        params[level] = MatchFinderParams(
            window_log=17,
            hash_log=12,
            min_match=4,
            strategy="fast",
            acceleration=1 + 2 * (-level),
        )
    # Depths are scaled down from the C library's (Python match finding is
    # the wall-clock bottleneck); the ladder preserves the strategy
    # progression and strict effort ordering, and the performance model
    # works from operation counters, not wall-clock (DESIGN.md 1.2).
    ladder = {
        1: ("fast", 17, 15, 0, 0, 0),
        2: ("fast", 18, 16, 0, 0, 0),
        3: ("greedy", 18, 16, 4, 0, 16),
        4: ("greedy", 18, 16, 8, 0, 24),
        5: ("lazy", 18, 17, 8, 1, 32),
        6: ("lazy", 19, 17, 16, 1, 48),
        7: ("lazy2", 19, 17, 16, 2, 64),
        8: ("lazy2", 19, 17, 24, 2, 96),
        9: ("lazy2", 20, 17, 32, 2, 128),
        10: ("lazy2", 20, 18, 48, 2, 192),
        11: ("lazy2", 21, 18, 64, 2, 256),
        12: ("lazy2", 21, 18, 64, 2, 512),
        13: ("optimal", 21, 18, 16, 0, 0),
        14: ("optimal", 21, 18, 24, 0, 0),
        15: ("optimal", 21, 18, 32, 0, 0),
        16: ("optimal", 22, 18, 32, 0, 0),
        17: ("optimal", 22, 18, 48, 0, 0),
        18: ("optimal", 22, 19, 48, 0, 0),
        19: ("optimal", 22, 19, 64, 0, 0),
        20: ("optimal", 22, 19, 64, 0, 0),
        21: ("optimal", 22, 19, 96, 0, 0),
        22: ("optimal", 22, 19, 96, 0, 0),
    }
    for level, (strategy, wlog, hlog, depth, lazy, target) in ladder.items():
        params[level] = MatchFinderParams(
            window_log=wlog,
            hash_log=hlog,
            search_depth=max(1, depth),
            min_match=4 if level < 16 else MIN_MATCH,
            target_length=target if target else 1 << 20,
            lazy_steps=lazy,
            strategy=strategy,
        )
    return params


LEVEL_PARAMS = _build_level_params()
# Level 0 means "use the default level", as in the real library.
LEVEL_PARAMS[0] = LEVEL_PARAMS[3]


def shrink_for_input(params: MatchFinderParams, input_size: int) -> MatchFinderParams:
    """Shrink hash/window tables for small inputs.

    The paper observes (Section IV-E) that "for smaller inputs, Zstd shrinks
    its hash tables ... because there is little benefit to using a 1MB hash
    table to process 1KB of input", producing the non-monotonic small-block
    speed profile of Fig. 13. The same policy is applied here.
    """
    if input_size <= 0:
        return params
    needed_log = max(6, input_size.bit_length())
    from dataclasses import replace

    return replace(
        params,
        hash_log=min(params.hash_log, needed_log),
        window_log=min(params.window_log, max(10, needed_log)),
    )

"""RFC 1951 constant tables: length codes, distance codes, fixed trees."""

from __future__ import annotations

from typing import List, Tuple

MIN_MATCH = 3
MAX_MATCH = 258
MAX_DISTANCE = 32768
END_OF_BLOCK = 256

#: length code -> (baseline, extra bits); codes 257..285
LENGTH_TABLE: List[Tuple[int, int]] = [
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1),
    (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3),
    (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5),
    (258, 0),
]

#: distance code -> (baseline, extra bits); codes 0..29
DISTANCE_TABLE: List[Tuple[int, int]] = [
    (1, 0), (2, 0), (3, 0), (4, 0),
    (5, 1), (7, 1),
    (9, 2), (13, 2),
    (17, 3), (25, 3),
    (33, 4), (49, 4),
    (65, 5), (97, 5),
    (129, 6), (193, 6),
    (257, 7), (385, 7),
    (513, 8), (769, 8),
    (1025, 9), (1537, 9),
    (2049, 10), (3073, 10),
    (4097, 11), (6145, 11),
    (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
]

#: order in which code-length-code lengths appear in a dynamic header
CODE_LENGTH_ORDER = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15]


def length_code(length: int) -> int:
    """DEFLATE length code (257..285) for a match length (3..258)."""
    if not MIN_MATCH <= length <= MAX_MATCH:
        raise ValueError(f"match length {length} outside 3..258")
    low, high = 0, len(LENGTH_TABLE) - 1
    while low < high:
        mid = (low + high + 1) // 2
        if LENGTH_TABLE[mid][0] <= length:
            low = mid
        else:
            high = mid - 1
    # Length 258 belongs to code 285 (its dedicated zero-extra code).
    return 257 + low


def distance_code(distance: int) -> int:
    """DEFLATE distance code (0..29) for a distance (1..32768)."""
    if not 1 <= distance <= MAX_DISTANCE:
        raise ValueError(f"distance {distance} outside 1..32768")
    low, high = 0, len(DISTANCE_TABLE) - 1
    while low < high:
        mid = (low + high + 1) // 2
        if DISTANCE_TABLE[mid][0] <= distance:
            low = mid
        else:
            high = mid - 1
    return low


#: ``length_code(length) - 257`` at index ``length - 3``, for lengths 3..258
LENGTH_CODES = bytes(
    length_code(length) - 257 for length in range(MIN_MATCH, MAX_MATCH + 1)
)
#: zlib's two-part distance lookup: ``distance_code(d)`` at index ``d - 1``
#: for ``d <= 256``, and at ``256 + ((d - 1) >> 7)`` above, where every code
#: spans whole 128-distance steps (the first two upper slots are unused)
DISTANCE_CODES = bytes(distance_code(d) for d in range(1, 257)) + bytes(
    distance_code((step << 7) + 1) for step in range(256)
)


def fixed_literal_lengths() -> List[int]:
    """Code lengths of the fixed literal/length tree (RFC 1951 section 3.2.6)."""
    lengths = [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
    return lengths


def fixed_distance_lengths() -> List[int]:
    """Code lengths of the fixed distance tree (all 5 bits)."""
    return [5] * 30

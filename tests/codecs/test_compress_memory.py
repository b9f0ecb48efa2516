"""How much heap one compress call holds at once, per input byte.

The paper ties compression levels to the match finder's window, hash and
chain tables; what a call holds while it builds and walks them is the
working set a server pays per request in flight. Each config below runs in
a fresh interpreter: one warm-up call (so import-time and cached tables
are not counted), then ``tracemalloc``'s peak over one more ``compress``
call on the same input, divided by its length. It is a count of bytes
allocated, not a clock, so two runs read the same.

``python tests/codecs/test_compress_memory.py`` prints each config's
reading beside its pin.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: the first 64 KiB of the first two files of ``silesia_like_corpus(65536,
#: seed=3)``, concatenated
INPUT_BYTES = 65536
#: the optimal parser sees the first 16 KiB of the same input
SLOW_INPUT_BYTES = 16384

#: config -> ceiling on the traced peak of one compress call, bytes per
#: input byte: at most 5 % above the reading once a parse became three int
#: lists and the single-hash finder read its hashes off a uint32 array
#: (13.0 / 43.3 / 15.9 / 44.1 / 43.5 / 44.7 / 104.2 in this order; with
#: slotted tokens and hash lists they were 48.3 / 46.9 / 53.1 / 49.2 /
#: 47.0 / 48.8 / 108.2)
PINS = {
    "lz4-1": 13.6,
    "lz4-9": 45.4,
    "zstd-1": 16.6,
    "zstd-3": 46.2,
    "zstd-9": 45.6,
    "zlib-6": 46.9,
    "zstd-19": 109.3,
}

_MEASURE = """
import tracemalloc
import repro.codecs
from repro.codecs.base import get_codec
from repro.corpus import silesia_like_corpus

files = list(silesia_like_corpus(65536, seed=3).values())
data = (files[0] + files[1])[:{input_bytes}]
codec = get_codec("{algorithm}")
codec.compress(data, {level})
tracemalloc.start()
codec.compress(data, {level})
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(peak / len(data))
"""


def heap_per_byte(config: str) -> float:
    """The traced peak of one warm ``compress`` call, bytes per input byte,
    measured in a fresh interpreter."""
    algorithm, __, level = config.partition("-")
    input_bytes = SLOW_INPUT_BYTES if config == "zstd-19" else INPUT_BYTES
    code = _MEASURE.format(input_bytes=input_bytes, algorithm=algorithm, level=int(level))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        cwd=str(ROOT),
    )
    return float(out.stdout)


@pytest.mark.parametrize("config", sorted(PINS))
def test_compress_heap_per_byte_stays_under_its_pin(config):
    reading = heap_per_byte(config)
    assert reading <= PINS[config], f"{config}: {reading:.1f} B/byte > pin {PINS[config]}"


if __name__ == "__main__":
    for config, pin in PINS.items():
        print(f"{config:8} {heap_per_byte(config):6.1f} B/byte (pin {pin})")

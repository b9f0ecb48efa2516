"""Seeded recovery fuzz: random crash cells must always recover.

Like the codec fuzz, the seed comes from ``REPRO_FUZZ_SEED`` (CI sets it
from the date so each nightly walks fresh crash cells; locally it
defaults to a fixed value). Every assertion carries the seed so a red
run replays with::

    REPRO_FUZZ_SEED=<seed> pytest tests/services/test_crash_fuzz.py

Each draw picks a workload seed, a crash site, and a visit number, and
replays the cell through the LSM model's own rules
(:func:`test_model_based.replay_cell`), whose checks are the recovery
invariant (acked writes survive, unacked never resurrect, no partial
level state).
"""

import os
import random

import pytest

from repro.services.kvstore.db import CRASH_SITES
from test_model_based import replay_cell, replay_sweep

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20230913"))
REPLAY = (
    f"replay: REPRO_FUZZ_SEED={FUZZ_SEED} "
    f"pytest tests/services/test_crash_fuzz.py"
)


def _draws(count):
    rng = random.Random(f"kvstore-crash-fuzz:{FUZZ_SEED}")
    return [
        (
            rng.randrange(1000),
            rng.choice(CRASH_SITES),
            rng.randint(1, 4),
            rng.choice([160, 220, 320]),
        )
        for __ in range(count)
    ]


@pytest.mark.parametrize("workload_seed,site,hit,ops", _draws(10))
def test_fuzz_crash_cell_recovers(workload_seed, site, hit, ops):
    # not every deep (site, hit) is reached by every workload; when it
    # fires, the machine has already checked the recovery
    try:
        machine = replay_cell(workload_seed, site, hit, ops)
    except AssertionError as exc:
        raise AssertionError(f"{exc} (seed={workload_seed}; {REPLAY})") from exc
    for crash, __, recovery in machine.crashes:
        assert (crash.site, crash.hit) == (site, hit), REPLAY
        assert recovery is not None, (
            f"crashed without a recovery report: site={site} hit={hit} "
            f"seed={workload_seed} {REPLAY}"
        )


def test_fuzz_full_sweep_at_fuzz_seed():
    # one exhaustive sweep at a seed derived from the fuzz seed: every
    # cell must fire and recover (the replayed mix is sized for that)
    try:
        machines = replay_sweep(FUZZ_SEED % 997, hits=2)
    except AssertionError as exc:
        raise AssertionError(f"{exc} ({REPLAY})") from exc
    assert all(len(machine.crashes) == 1 for machine in machines), (
        f"unfired sweep cells at workload seed {FUZZ_SEED % 997} ({REPLAY})"
    )

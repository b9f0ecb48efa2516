"""Golden contract for the simulators: scorecards and timelines do not move.

Every case pins ``sha256`` of a rendered artefact -- the serving scorecard,
SLO table and JSONL timeline; the cluster scorecard; the chaos scorecard --
at seed 7 and smoke scale, plus one chaos run at seed 1 and full ops, where
the ``kvstore.storage`` truncations fire. The pins in ``scorecard_golden.json`` were
generated once, before the two event loops were folded into ``repro.sim``,
so a simulator edit that keeps this file green is behaviour-preserving by
construction: same bytes.

Regenerate (only when a scorecard change is *intended*)::

    PYTHONPATH=src python tests/test_scorecard_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro import chaos
from repro.cluster import format_cluster_scorecard, run_cluster_simulation
from repro.faults.plan import NAMED_PLANS
from repro.serving import (
    format_scorecard,
    format_timeline,
    run_simulation,
    timeline_jsonl,
)

PINS_PATH = Path(__file__).with_name("scorecard_golden.json")

SEED = 7
SERVE_SCALE = 0.1
CLUSTER_SCALE = 0.25
CHAOS_OPS = 0.25

#: label -> extra ``run_simulation`` keywords
SERVE_RUNS = {
    "baseline": {"scenario": "baseline"},
    "overload": {"scenario": "overload"},
    "burst": {"scenario": "burst"},
    "overload,degradation=off": {"scenario": "overload", "degradation": False},
    "overload,window=0.5": {"scenario": "overload", "window_seconds": 0.5},
}
SERVE_RENDERERS = {
    "scorecard": format_scorecard,
    "timeline": lambda report: format_timeline(report.timeline),
    "jsonl": lambda report: timeline_jsonl(report.timeline),
}
#: label -> extra ``run_cluster_simulation`` keywords
CLUSTER_RUNS = {
    "fleet-steady": {"scenario": "fleet-steady"},
    "fleet-surge": {"scenario": "fleet-surge"},
    "fleet-hotspot": {"scenario": "fleet-hotspot"},
}
#: label -> ``run_chaos`` keywords; every named plan at the defaults, and
#: the corruption plan where at-rest SST blocks are truncated
CHAOS_RUNS = {
    **{plan: {"plan": plan} for plan in sorted(NAMED_PLANS)},
    "corruption,seed=1,ops=1.0": {"plan": "corruption", "seed": 1, "ops": 1.0},
}


@lru_cache(maxsize=None)
def _serve_report(label: str):
    return run_simulation(seed=SEED, scale=SERVE_SCALE, **SERVE_RUNS[label])


def _render(case_id: str) -> str:
    plane, label, *rest = case_id.split("/")
    if plane == "serve":
        return SERVE_RENDERERS[rest[0]](_serve_report(label))
    if plane == "cluster":
        return format_cluster_scorecard(
            run_cluster_simulation(
                seed=SEED, scale=CLUSTER_SCALE, **CLUSTER_RUNS[label]
            )
        )
    return chaos.format_scorecard(
        chaos.run_chaos(**{"seed": SEED, "ops": CHAOS_OPS, **CHAOS_RUNS[label]})
    )


def _case_ids():
    return (
        [f"serve/{label}/{kind}" for label in SERVE_RUNS for kind in SERVE_RENDERERS]
        + [f"cluster/{label}" for label in CLUSTER_RUNS]
        + [f"chaos/{label}" for label in CHAOS_RUNS]
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_exactly_the_declared_cases(pins):
    assert sorted(pins) == sorted(_case_ids())


@pytest.mark.parametrize("case_id", _case_ids())
def test_rendered_bytes_match_pin(case_id, pins):
    assert _sha(_render(case_id)) == pins[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    lines = [
        f"{json.dumps(case_id, sort_keys=True)}: "
        f"{json.dumps(_sha(_render(case_id)), sort_keys=True)}"
        for case_id in sorted(_case_ids())
    ]
    PINS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")

"""The benchmark's full-size sensor streams still match their recorded
digests, so a simulator change that alters them fails here rather than
only when the benchmark runs. Checks run seed 0: every stream the
benchmark's first run replays."""

import json
import sys
from pathlib import Path

import pytest

from sgraph.ablation import stream_digest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import WORKLOADS  # noqa: E402 - needs perfbench/ on the import path

RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize(
    ("workload", "seed"),
    [(name, seed) for name, wl in WORKLOADS.items() for seed in wl.noise_seeds(0)],
)
def test_stream_matches_recorded_digest(workload, seed):
    wl = WORKLOADS[workload]
    steps = wl.make_stream(wl.make_world(), seed)
    assert stream_digest(steps) == RECORDED[workload][str(seed)]

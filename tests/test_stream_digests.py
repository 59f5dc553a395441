"""The benchmark's full-size sensor streams still match their recorded
digests, so a simulator change that alters them fails here rather than
only when the benchmark runs. Checks run seed 0: every stream the
benchmark's first run replays."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sgraph.ablation import stream_digest
from sgraph.simulator import TrajectorySpec, default_multi_room_layout, perimeter_waypoints

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


# rooms4-online's noise and scan pattern in the 8-room world, noise seed 0:
# a 9 m scan there reaches few of the 90 walls, so this stream is the one
# that leans hardest on the ray caster's wall cull
ROOMS8_DIGEST = "8d3ddbffdf3f67f8d58eabb978ed296c35095784b6822a3598ae4bf8d0532e78"


def test_rooms8_stream_matches_recorded_digest():
    layout = default_multi_room_layout(8)
    traj = TrajectorySpec(waypoints=perimeter_waypoints(list(layout.rects)))
    wl = replace(WORKLOADS["rooms4-online"], layout=layout, traj=traj)
    assert stream_digest(wl.make_stream(wl.make_world(), 0)) == ROOMS8_DIGEST

"""End-to-end pipeline behavior and the command-line interface."""

import json

import numpy as np

from sgraph.cli import main, parse_seeds
from sgraph.io import graph_to_dict
from sgraph.metrics import TrajectoryPair, ate
from sgraph.pipeline import SlamConfig, run_slam
from sgraph.simulator import (
    LayoutSpec,
    NoiseSpec,
    RectSpec,
    ScanPattern,
    TrajectorySpec,
    generate_world,
    simulate_run,
)

LAYOUT = LayoutSpec(rects=(RectSpec(-4.0, 4.0, -3.0, 3.0, kind="room"),))
TRAJ = TrajectorySpec(waypoints=((-2.0, -1.0, 0.0), (2.0, -1.0, 0.0), (2.0, 1.0, 0.0)))
PATTERN = ScanPattern(n_rings=12, n_azimuth=180)


def run_steps(noise=NoiseSpec(seed=0)):
    world = generate_world(LAYOUT)
    return world, simulate_run(world, TRAJ, noise, PATTERN)


class TestRunSlam:
    def test_noiseless_recovers_trajectory(self):
        world, steps = run_steps()
        result = run_slam(steps, SlamConfig())
        pair = TrajectoryPair(
            estimated=result.trajectory,
            reference=[(s.timestamp, s.gt_pose) for s in steps],
        )
        assert ate(pair) < 1e-6
        assert result.reports[-1].final_cost < 1e-8

    def test_builds_room_layer(self):
        world, steps = run_steps()
        result = run_slam(steps, SlamConfig())
        assert len(result.graph.planes) >= 4
        assert len(result.graph.rooms) == 1
        room = next(iter(result.graph.rooms.values()))
        # the map frame is anchored at the first pose, so the room center
        # sits at world center (0,0) minus the start position
        start_xy = steps[0].gt_pose.translation[:2]
        assert np.allclose(room.center, -start_xy, atol=0.05)
        assert np.allclose(room.widths, [8.0, 6.0], atol=0.1)

    def test_topology_flag_isolated(self):
        _, steps = run_steps()
        off = run_slam(steps, SlamConfig(enable_topology=False))
        assert len(off.graph.rooms) == 0
        assert len(off.graph.corridors) == 0
        assert all(f.kind.value not in ("room_plane", "corridor_plane") for f in off.graph.factors)

    def test_loop_flag_default_off_is_bit_identical(self):
        _, steps = run_steps(NoiseSpec(trans_drift=0.01, seed=2))
        a = run_slam(steps, SlamConfig())
        b = run_slam(steps, SlamConfig(enable_loop_closure=False))
        assert a.loop_constraints == 0
        assert graph_to_dict(a.graph) == graph_to_dict(b.graph)

    def test_keyframe_spacing_respected(self):
        _, steps = run_steps()
        result = run_slam(steps, SlamConfig())
        kfs = sorted(result.graph.keyframes)
        for a, b in zip(kfs, kfs[1:]):
            d = np.linalg.norm(
                result.graph.keyframes[b].odom_pose.translation
                - result.graph.keyframes[a].odom_pose.translation
            )
            assert d > 0.5  # policy min_translation=1.0 along straight segments


class TestCli:
    def write_configs(self, tmp_path):
        layout = {
            "rects": [{"x_min": -4.0, "x_max": 4.0, "y_min": -3.0, "y_max": 3.0}],
            "trajectory": {
                "waypoints": [[-2.0, -1.0, 0.0], [2.0, -1.0, 0.0], [2.0, 1.0, 0.0]]
            },
            "pattern": {"n_rings": 12, "n_azimuth": 180},
        }
        noise = {"trans_drift": 0.0, "rot_drift": 0.0, "range_sigma": 0.0}
        (tmp_path / "layout.json").write_text(json.dumps(layout))
        (tmp_path / "noise.json").write_text(json.dumps(noise))

    def test_simulate_slam_eval_round_trip(self, tmp_path):
        self.write_configs(tmp_path)
        data = tmp_path / "data"
        run = tmp_path / "run"
        report = tmp_path / "report.json"
        assert main([
            "simulate", "--layout", str(tmp_path / "layout.json"),
            "--noise", str(tmp_path / "noise.json"), "--out", str(data),
        ]) == 0
        assert (data / "world.json").exists()
        assert (data / "ground_truth.tum").exists()
        assert main(["slam", "--dataset", str(data), "--out", str(run)]) == 0
        meta = json.loads((run / "run_meta.json").read_text())
        assert meta["n_rooms"] == 1
        assert main(["eval", "--run", str(run), "--report", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert rep["ate"] < 1e-6
        assert rep["map_rmse"] < 1e-6
        assert report.with_suffix(".csv").exists()

    def test_error_gives_nonzero_exit(self, tmp_path):
        assert main(["slam", "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path)]) == 1

    def test_parse_seeds(self):
        assert parse_seeds("1..4") == [1, 2, 3, 4]
        assert parse_seeds("0,5,9") == [0, 5, 9]

    def test_ablate_writes_report(self, tmp_path):
        self.write_configs(tmp_path)
        report = tmp_path / "ablation.json"
        assert main([
            "ablate", "--layout", str(tmp_path / "layout.json"),
            "--noise", str(tmp_path / "noise.json"),
            "--seeds", "0", "--report", str(report),
        ]) == 0
        d = json.loads(report.read_text())
        assert "mean_ate_full" in d or "mean_ate" in str(d)
        assert report.with_suffix(".csv").exists()

"""Trajectory and map accuracy metrics: alignment invariance and noise
recovery."""

import math

import numpy as np
import pytest

from sgraph.geometry import Pose3, rot_exp
from sgraph.metrics import (
    EmptyMap,
    TooFewPoses,
    TrajectoryPair,
    align_rigid,
    ate,
    ate_alignment,
    map_rmse,
    start_end_error,
)
from sgraph.simulator import LayoutSpec, RectSpec, generate_world

from reference_factors import pose_retract


def random_trajectory(rng, n=60):
    traj = []
    pose = Pose3.identity()
    for i in range(n):
        delta = np.concatenate([rng.normal(0, 0.3, 3), rng.normal(0, 0.1, 3)])
        pose = pose_retract(pose, delta)
        traj.append((float(i), pose))
    return traj


class TestAte:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(0)
        traj = random_trajectory(rng)
        assert ate(TrajectoryPair(traj, traj)) == pytest.approx(0.0, abs=1e-12)

    def test_rigid_transform_invariant(self):
        rng = np.random.default_rng(1)
        traj = random_trajectory(rng)
        T = Pose3(rot_exp(np.array([0.3, -0.2, 0.9])), np.array([5.0, -2.0, 1.0]))
        moved = [(t, T.compose(p)) for t, p in traj]
        assert ate(TrajectoryPair(moved, traj)) == pytest.approx(0.0, abs=1e-9)

    def test_alignment_undoes_a_rigid_transform(self):
        # `sgraph eval` moves the map into the world frame with this alignment
        rng = np.random.default_rng(1)
        traj = random_trajectory(rng)
        T = Pose3(rot_exp(np.array([0.3, -0.2, 0.9])), np.array([5.0, -2.0, 1.0]))
        pair = TrajectoryPair([(t, T.compose(p)) for t, p in traj], traj)
        aligned, error = ate_alignment(pair)
        assert error == ate(pair)
        assert np.allclose(aligned.rotation, T.inverse().rotation, atol=1e-9)
        assert np.allclose(aligned.translation, T.inverse().translation, atol=1e-9)

    def test_known_offset_single_axis(self):
        # half the poses shifted +0.2 in x: optimal alignment centers the
        # error, rmse = 0.1
        traj = [(float(i), Pose3(np.eye(3), np.array([float(i), 0, 0]))) for i in range(10)]
        est = [
            (t, Pose3(np.eye(3), p.translation + np.array([0.2 * (i % 2), 0, 0])))
            for i, (t, p) in enumerate(traj)
        ]
        assert ate(TrajectoryPair(est, traj)) == pytest.approx(0.1, abs=1e-9)

    def test_too_few_poses(self):
        with pytest.raises(TooFewPoses):
            ate(TrajectoryPair([(0.0, Pose3.identity())], [(9.0, Pose3.identity())]))

    def test_empty_reference(self):
        traj = [(float(i), Pose3.identity()) for i in range(3)]
        with pytest.raises(TooFewPoses, match="only 0 associated poses"):
            ate_alignment(TrajectoryPair(traj, []))

    def test_time_association_tolerance(self):
        rng = np.random.default_rng(2)
        traj = random_trajectory(rng)
        # shift estimate timestamps by less than the association window
        est = [(t + 0.1, p) for t, p in traj]
        assert ate(TrajectoryPair(est, traj), max_dt=0.25) == pytest.approx(0.0, abs=1e-12)


class TestAlignRigid:
    def test_recovers_known_transform(self):
        rng = np.random.default_rng(3)
        src = rng.normal(0, 2, size=(40, 3))
        T = Pose3(rot_exp(np.array([0.1, 0.7, -0.4])), np.array([1.0, 2.0, 3.0]))
        dst = src @ T.rotation.T + T.translation
        R = align_rigid(src, dst)
        assert np.allclose(R.rotation, T.rotation, atol=1e-12)
        assert np.allclose(R.translation, T.translation, atol=1e-12)


class TestMapRmse:
    WORLD = generate_world(
        LayoutSpec(rects=(RectSpec(-4.0, 4.0, -3.0, 3.0, kind="room"),), wall_height=2.5)
    )

    def test_points_on_planes_zero(self):
        rng = np.random.default_rng(4)
        n = 500
        pts = np.stack(
            [np.full(n, -4.0), rng.uniform(-3, 3, n), rng.uniform(0, 2.5, n)], axis=1
        )
        assert map_rmse(pts, self.WORLD) == pytest.approx(0.0, abs=1e-12)

    def test_recovers_injected_sigma(self):
        # 1e5 wall points with gaussian normal-direction noise: rmse ~ sigma
        rng = np.random.default_rng(5)
        sigma = 0.02
        n = 100_000
        pts = np.stack(
            [np.full(n, 4.0), rng.uniform(-3, 3, n), rng.uniform(0, 2.5, n)], axis=1
        )
        pts[:, 0] += rng.normal(0.0, sigma, n)
        rmse = map_rmse(pts, self.WORLD)
        assert 0.8 * sigma < rmse < 1.2 * sigma

    def test_cutoff_excludes_outliers(self):
        pts = np.array([[4.0, 0.0, 1.0], [30.0, 0.0, 1.0]])
        assert map_rmse(pts, self.WORLD, cutoff=0.5) == pytest.approx(0.0, abs=1e-12)

    def test_empty_map_raises(self):
        with pytest.raises(EmptyMap):
            map_rmse(np.empty((0, 3)), self.WORLD)
        with pytest.raises(EmptyMap):
            map_rmse(np.array([[100.0, 100.0, 100.0]]), self.WORLD)


class TestStartEndError:
    def test_closed_loop_zero(self):
        p = Pose3.from_xyz_yaw(1.0, 2.0, 0.0, 0.3)
        t_err, r_err = start_end_error([(0.0, p), (9.0, p)])
        assert t_err == pytest.approx(0.0, abs=1e-12)
        assert r_err == pytest.approx(0.0, abs=1e-12)

    def test_known_gap(self):
        a = Pose3.identity()
        b = Pose3.from_xyz_yaw(0.3, 0.4, 0.0, math.radians(10.0))
        t_err, r_err = start_end_error([(0.0, a), (9.0, b)])
        assert t_err == pytest.approx(0.5, abs=1e-12)
        assert r_err == pytest.approx(10.0, abs=1e-9)

"""Residual conventions and analytic-vs-finite-difference Jacobian checks."""

import math

import numpy as np
import pytest

from sgraph.factors import (
    corridor_plane_residual,
    pose_between_residual,
    pose_plane_residual,
    room_plane_residual,
)
from sgraph.geometry import PlaneMinimal, Pose3, from_minimal, rot_exp, to_minimal, transform_plane

from reference_factors import plane_retract


def tx(x):
    return Pose3(np.eye(3), np.array([x, 0.0, 0.0]))


def random_pose(rng, rot_scale=1.0, trans_scale=5.0):
    return Pose3(rot_exp(rng.normal(0, rot_scale, 3)), rng.normal(0, trans_scale, 3))


class TestOdometryResidual:
    def test_zero_when_consistent(self):
        rng = np.random.default_rng(0)
        a, b = random_pose(rng), random_pose(rng)
        meas = a.inverse().compose(b)
        r, _, _ = pose_between_residual(a, b, meas)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_translation_mismatch(self):
        # prediction Tx(2) vs measurement Tx(1): residual [1,0,0, 0,0,0]
        r, _, _ = pose_between_residual(Pose3.identity(), tx(2.0), tx(1.0))
        assert np.allclose(r, [1, 0, 0, 0, 0, 0], atol=1e-12)

    def test_pure_yaw_mismatch(self):
        pred = Pose3.from_xyz_yaw(0, 0, 0, 0.1)
        r, _, _ = pose_between_residual(Pose3.identity(), pred, Pose3.identity())
        assert np.linalg.norm(r[3:6]) == pytest.approx(0.1, abs=1e-12)
        assert np.allclose(r[0:3], 0.0)


class TestPlaneResidual:
    def test_zero_when_consistent(self):
        rng = np.random.default_rng(1)
        pose = random_pose(rng)
        map_plane = PlaneMinimal(0.3, 0.2, 4.0)
        meas = to_minimal(transform_plane(pose, from_minimal(map_plane), to_sensor=True))
        r, _, _ = pose_plane_residual(pose, map_plane, meas)
        assert np.allclose(r, 0.0, atol=1e-9)

    def test_translation_shift_shows_in_distance(self):
        # robot +0.5 m along x against an x-plane, measurement unshifted
        pose = tx(0.5)
        map_plane = PlaneMinimal(0.0, 0.0, 5.0)
        meas = PlaneMinimal(0.0, 0.0, 5.0)
        r, _, _ = pose_plane_residual(pose, map_plane, meas)
        assert r[2] == pytest.approx(-0.5, abs=1e-12)
        assert np.allclose(r[0:2], 0.0)

    def test_azimuth_wraps(self):
        map_plane = PlaneMinimal(math.pi - 0.01, 0.0, 2.0)
        meas = PlaneMinimal(-math.pi + 0.01, 0.0, 2.0)
        r, _, _ = pose_plane_residual(Pose3.identity(), map_plane, meas)
        assert r[0] == pytest.approx(-0.02, abs=1e-12)


class TestRoomCorridorResidual:
    def test_room_consistent(self):
        r, _, _ = room_plane_residual(np.array([3.0, 3.0]), np.array([4.0, 2.0]), PlaneMinimal(0, 0, 1.0), 0, 1.0)
        assert r == pytest.approx(0.0)

    def test_room_perturbed(self):
        r, _, _ = room_plane_residual(np.array([3.0, 3.0]), np.array([4.0, 2.0]), PlaneMinimal(0, 0, 5.2), 1, 1.0)
        assert r == pytest.approx(-0.2)

    def test_corridor_consistent(self):
        r, _, _ = corridor_plane_residual(1.0, 2.0, PlaneMinimal(0, 0, 0.0), 0, 1.0)
        assert r == pytest.approx(0.0)

    def test_corridor_perturbed(self):
        r, _, _ = corridor_plane_residual(1.0, 2.0, PlaneMinimal(0, 0, 2.3), 1, 1.0)
        assert r == pytest.approx(-0.3)

    def test_room_jacobian_pattern(self):
        _, Jr, Jp = room_plane_residual(np.array([3.0, 3.0]), np.array([4.0, 2.0]), PlaneMinimal(0, 0, 1.0), 0, 1.0)
        assert np.allclose(Jr, [1, 0, -0.5, 0])
        assert np.allclose(Jp, [0, 0, -1])
        _, Jr, Jp = room_plane_residual(np.array([3.0, 3.0]), np.array([4.0, 2.0]), PlaneMinimal(0, 0, 5.0), 1, 1.0)
        assert np.allclose(Jr, [1, 0, 0.5, 0])


def fd_jacobian(fn, x0, dim, step=1e-6):
    """Central finite differences of fn: R^dim -> R^m around 0."""
    r0 = fn(np.zeros(dim))
    J = np.zeros((len(r0), dim))
    for i in range(dim):
        dp = np.zeros(dim)
        dp[i] = step
        rp = fn(dp)
        rm = fn(-dp)
        J[:, i] = (rp - rm) / (2 * step)
    return J


def check_jacobian(J_analytic, J_fd, rtol=1e-5):
    scale = max(1.0, np.max(np.abs(J_fd)))
    assert np.max(np.abs(J_analytic - J_fd)) / scale < rtol


class TestJacobiansAgainstFiniteDifferences:
    def test_odometry_jacobians(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            meas = a.inverse().compose(b).compose(random_pose(rng, 0.1, 0.1))
            r, Ja, Jb = pose_between_residual(a, b, meas)

            def fa(d):
                return pose_between_residual(a.retract(d), b, meas)[0]

            def fb(d):
                return pose_between_residual(a, b.retract(d), meas)[0]

            check_jacobian(Ja, fd_jacobian(fa, None, 6))
            check_jacobian(Jb, fd_jacobian(fb, None, 6))

    def test_odometry_jacobian_identity_structure(self):
        r, Ja, Jb = pose_between_residual(Pose3.identity(), Pose3.identity(), Pose3.identity())
        assert np.allclose(Jb[0:3, 0:3], np.eye(3))
        assert np.allclose(Ja[0:3, 0:3], -np.eye(3))

    def test_pose_plane_jacobians(self):
        rng = np.random.default_rng(43)
        n_checked = 0
        while n_checked < 100:
            pose = random_pose(rng, 0.8, 3.0)
            plane = PlaneMinimal(
                rng.uniform(-2.5, 2.5), rng.uniform(-1.2, 1.2), rng.uniform(0.5, 10.0)
            )
            meas = PlaneMinimal(rng.uniform(-2.5, 2.5), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 10.0))
            r, Jpose, Jplane = pose_plane_residual(pose, plane, meas)
            # skip samples near the residual's singularities: the predicted
            # normal 90 degrees off the measured one (elevation +-pi/2 in the
            # measurement's frame), the antipode (azimuth wraps at +-pi) and
            # the closest-point flip at d = 0
            hess = from_minimal(plane)
            d_l = hess.distance - float(pose.translation @ hess.normal)
            if (
                abs(abs(r[1]) - math.pi / 2) < 1e-3
                or abs(abs(r[0]) - math.pi) < 1e-3
                or abs(d_l) < 1e-3
            ):
                continue
            n_checked += 1

            def fpose(d):
                return pose_plane_residual(pose.retract(d), plane, meas)[0]

            def fplane(d):
                return pose_plane_residual(pose, plane_retract(plane, d), meas)[0]

            check_jacobian(Jpose, fd_jacobian(fpose, None, 6))
            check_jacobian(Jplane, fd_jacobian(fplane, None, 3))

    def test_pose_plane_jacobians_at_the_pole(self):
        # floor and ceiling landmarks and measurements at and next to the
        # pole of (azimuth, elevation), where the residual is smooth
        rng = np.random.default_rng(46)
        for _ in range(100):
            pose = random_pose(rng, 0.02, 1.0)
            el = rng.choice([-1.0, 1.0]) * (math.pi / 2 - rng.choice([0.0, 1e-7, 1e-3]))
            plane = PlaneMinimal(rng.uniform(-3.0, 3.0), el, rng.uniform(0.5, 3.0))
            meas = to_minimal(transform_plane(pose, from_minimal(plane), to_sensor=True))
            meas = PlaneMinimal(meas.azimuth, meas.elevation, meas.distance + 0.01)
            r, Jpose, Jplane = pose_plane_residual(pose, plane, meas)
            assert np.all(np.abs(r) < 0.1)

            def fpose(d):
                return pose_plane_residual(pose.retract(d), plane, meas)[0]

            def fplane(d):
                return pose_plane_residual(pose, plane_retract(plane, d), meas)[0]

            check_jacobian(Jpose, fd_jacobian(fpose, None, 6))
            check_jacobian(Jplane, fd_jacobian(fplane, None, 3))

    def test_room_plane_jacobians(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            center = rng.normal(0, 5, 2)
            widths = rng.uniform(1, 8, 2)
            plane = PlaneMinimal(rng.uniform(-3, 3), rng.uniform(-0.3, 0.3), rng.uniform(0.5, 10))
            slot = rng.integers(0, 4)
            sign = rng.choice([-1.0, 1.0])
            _, Jr, Jp = room_plane_residual(center, widths, plane, slot, sign)

            def fr(d):
                return np.array(
                    [room_plane_residual(center + d[0:2], widths + d[2:4], plane, slot, sign)[0]]
                )

            def fp(d):
                p = PlaneMinimal(plane.azimuth + d[0], plane.elevation + d[1], plane.distance + d[2])
                return np.array([room_plane_residual(center, widths, p, slot, sign)[0]])

            check_jacobian(Jr.reshape(1, 4), fd_jacobian(fr, None, 4))
            check_jacobian(Jp.reshape(1, 3), fd_jacobian(fp, None, 3))

    def test_corridor_plane_jacobians(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            center = float(rng.normal(0, 5))
            width = float(rng.uniform(1, 4))
            plane = PlaneMinimal(rng.uniform(-3, 3), rng.uniform(-0.3, 0.3), rng.uniform(0.5, 10))
            slot = int(rng.integers(0, 2))
            sign = float(rng.choice([-1.0, 1.0]))
            _, Jc, Jp = corridor_plane_residual(center, width, plane, slot, sign)

            def fc(d):
                return np.array(
                    [corridor_plane_residual(center + d[0], width + d[1], plane, slot, sign)[0]]
                )

            def fp(d):
                p = PlaneMinimal(plane.azimuth + d[0], plane.elevation + d[1], plane.distance + d[2])
                return np.array([corridor_plane_residual(center, width, p, slot, sign)[0]])

            check_jacobian(Jc.reshape(1, 2), fd_jacobian(fc, None, 2))
            check_jacobian(Jp.reshape(1, 3), fd_jacobian(fp, None, 3))

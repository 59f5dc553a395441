"""Residual conventions and analytic-vs-finite-difference Jacobian checks,
each on a graph of one factor and its two variables through
`SGraph.evaluate_factor`."""

import math

import numpy as np
import pytest

from sgraph.factors import Factor, FactorKind
from sgraph.geometry import (
    PlaneClass,
    PlaneMinimal,
    Pose3,
    classify_plane,
    from_minimal,
    rot_exp,
    to_minimal,
    transform_plane,
)
from sgraph.graph import Keyframe, PlaneLandmark, SGraph, Span

from reference_factors import evaluate_factor, plane_retract, pose_retract
from test_io import sample_graph


def tx(x):
    return Pose3(np.eye(3), np.array([x, 0.0, 0.0]))


def random_pose(rng, rot_scale=1.0, trans_scale=5.0):
    return Pose3(rot_exp(rng.normal(0, rot_scale, 3)), rng.normal(0, trans_scale, 3))


# -- one factor on a graph of its two variables ------------------------------


def _keyframe(kf_id: int, pose: Pose3) -> Keyframe:
    return Keyframe(kf_id, 0.0, pose, pose, np.zeros((6, 6)))


def _landmark(params: PlaneMinimal) -> PlaneLandmark:
    return PlaneLandmark(0, params, classify_plane(from_minimal(params)), np.zeros(2), np.zeros(3))


def _evaluate(graph: SGraph, kind: FactorKind, variables: tuple, measurement, dim: int):
    """`graph.evaluate_factor` of one factor: the residual and the Jacobian
    blocks of its two variables, in order."""
    r, J = graph.evaluate_factor(Factor(kind, variables, measurement, np.eye(dim)))
    return r, J[variables[0]], J[variables[1]]


def pose_between(a: Pose3, b: Pose3, meas: Pose3):
    """Relative-pose factor from keyframe pose a to b."""
    g = SGraph(keyframes={0: _keyframe(0, a), 1: _keyframe(1, b)})
    return _evaluate(g, FactorKind.ODOMETRY, (("kf", 0), ("kf", 1)), meas, 6)


def pose_plane(pose: Pose3, plane: PlaneMinimal, meas: PlaneMinimal):
    """Observation of a mapped plane from a keyframe pose."""
    g = SGraph(keyframes={0: _keyframe(0, pose)}, planes={0: _landmark(plane)})
    return _evaluate(g, FactorKind.POSE_PLANE, (("kf", 0), ("plane", 0)), meas, 3)


def span_plane(center: float, width: float, plane: PlaneMinimal, slot: int, kind=FactorKind.ROOM_PLANE):
    """Edge of a span's wall slot (0 low-x, 1 high-x, 2 low-y, 3 high-y),
    as a room's edge or, with `kind` CORRIDOR_PLANE, a corridor's; the
    plane's normal gives its sign."""
    axis = PlaneClass.X_VERTICAL if slot < 2 else PlaneClass.Y_VERTICAL
    g = SGraph(planes={0: _landmark(plane)}, spans={0: Span(axis, float(center), float(width), (0, 0))})
    return _evaluate(g, kind, (("span", 0), ("plane", 0)), slot, 1)


class TestOdometryResidual:
    def test_zero_when_consistent(self):
        rng = np.random.default_rng(0)
        a, b = random_pose(rng), random_pose(rng)
        meas = a.inverse().compose(b)
        r, _, _ = pose_between(a, b, meas)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_translation_mismatch(self):
        # prediction Tx(2) vs measurement Tx(1): residual [1,0,0, 0,0,0]
        r, _, _ = pose_between(Pose3.identity(), tx(2.0), tx(1.0))
        assert np.allclose(r, [1, 0, 0, 0, 0, 0], atol=1e-12)

    def test_pure_yaw_mismatch(self):
        pred = Pose3.from_xyz_yaw(0, 0, 0, 0.1)
        r, _, _ = pose_between(Pose3.identity(), pred, Pose3.identity())
        assert np.linalg.norm(r[3:6]) == pytest.approx(0.1, abs=1e-12)
        assert np.allclose(r[0:3], 0.0)


class TestPlaneResidual:
    def test_zero_when_consistent(self):
        rng = np.random.default_rng(1)
        pose = random_pose(rng)
        map_plane = PlaneMinimal(0.3, 0.2, 4.0)
        meas = to_minimal(transform_plane(pose, from_minimal(map_plane), to_sensor=True))
        r, _, _ = pose_plane(pose, map_plane, meas)
        assert np.allclose(r, 0.0, atol=1e-9)

    def test_translation_shift_shows_in_distance(self):
        # robot +0.5 m along x against an x-plane, measurement unshifted
        pose = tx(0.5)
        map_plane = PlaneMinimal(0.0, 0.0, 5.0)
        meas = PlaneMinimal(0.0, 0.0, 5.0)
        r, _, _ = pose_plane(pose, map_plane, meas)
        assert r[2] == pytest.approx(-0.5, abs=1e-12)
        assert np.allclose(r[0:2], 0.0)

    def test_azimuth_wraps(self):
        map_plane = PlaneMinimal(math.pi - 0.01, 0.0, 2.0)
        meas = PlaneMinimal(-math.pi + 0.01, 0.0, 2.0)
        r, _, _ = pose_plane(Pose3.identity(), map_plane, meas)
        assert r[0] == pytest.approx(-0.02, abs=1e-12)


class TestRoomCorridorResidual:
    """Edges of the room with x span (3, 4) and y span (3, 2), and of the
    corridor with x span (1, 2)."""

    def test_room_consistent(self):
        r, _, _ = span_plane(3.0, 4.0, PlaneMinimal(0, 0, 1.0), 0)
        assert r == pytest.approx(0.0)

    def test_room_perturbed(self):
        r, _, _ = span_plane(3.0, 4.0, PlaneMinimal(0, 0, 5.2), 1)
        assert r == pytest.approx(-0.2)

    def test_corridor_consistent(self):
        r, _, _ = span_plane(1.0, 2.0, PlaneMinimal(0, 0, 0.0), 0, FactorKind.CORRIDOR_PLANE)
        assert r == pytest.approx(0.0)

    def test_corridor_perturbed(self):
        r, _, _ = span_plane(1.0, 2.0, PlaneMinimal(0, 0, 2.3), 1, FactorKind.CORRIDOR_PLANE)
        assert r == pytest.approx(-0.3)

    def test_room_jacobian_pattern(self):
        _, Js, Jp = span_plane(3.0, 4.0, PlaneMinimal(0, 0, 1.0), 0)
        assert np.allclose(Js, [1, -0.5])
        assert np.allclose(Jp, [0, 0, -1])
        _, Js, Jp = span_plane(3.0, 4.0, PlaneMinimal(0, 0, 5.0), 1)
        assert np.allclose(Js, [1, 0.5])
        _, Js, Jp = span_plane(3.0, 2.0, PlaneMinimal(-math.pi / 2, 0, 2.0), 2)
        assert np.allclose(Js, [1, -0.5])
        assert np.allclose(Jp, [0, 0, 1])


class TestEvaluateFactor:
    def test_matches_the_reference_on_every_kind(self):
        g = sample_graph()
        assert {f.kind for f in g.factors} == set(FactorKind)
        for f in g.factors:
            r, J = g.evaluate_factor(f)
            r_ref, J_ref = evaluate_factor(g, f)
            assert r.shape == r_ref.shape
            assert np.allclose(r, r_ref, rtol=0.0, atol=1e-12)
            assert list(J) == list(J_ref) == list(f.variables)
            for key, block in J.items():
                assert block.shape == J_ref[key].shape
                assert np.allclose(block, J_ref[key], rtol=0.0, atol=1e-12)


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
            r, Ja, Jb = pose_between(a, b, meas)

            def fa(d):
                return pose_between(pose_retract(a, d), b, meas)[0]

            def fb(d):
                return pose_between(a, pose_retract(b, d), meas)[0]

            check_jacobian(Ja, fd_jacobian(fa, None, 6))
            check_jacobian(Jb, fd_jacobian(fb, None, 6))

    def test_odometry_jacobian_identity_structure(self):
        r, Ja, Jb = pose_between(Pose3.identity(), Pose3.identity(), Pose3.identity())
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
            r, Jpose, Jplane = pose_plane(pose, plane, meas)
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
                return pose_plane(pose_retract(pose, d), plane, meas)[0]

            def fplane(d):
                return pose_plane(pose, plane_retract(plane, d), meas)[0]

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
            r, Jpose, Jplane = pose_plane(pose, plane, meas)
            assert np.all(np.abs(r) < 0.1)

            def fpose(d):
                return pose_plane(pose_retract(pose, d), plane, meas)[0]

            def fplane(d):
                return pose_plane(pose, plane_retract(plane, d), meas)[0]

            check_jacobian(Jpose, fd_jacobian(fpose, None, 6))
            check_jacobian(Jplane, fd_jacobian(fplane, None, 3))

    @staticmethod
    def check_span_plane_jacobians(kind, seed):
        """Random span edges on both axes, walls on both sides of the origin."""
        rng = np.random.default_rng(seed)
        for _ in range(100):
            center = float(rng.normal(0, 5))
            width = float(rng.uniform(1, 8))
            plane = PlaneMinimal(rng.uniform(-3, 3), rng.uniform(-0.3, 0.3), rng.uniform(0.5, 10))
            slot = int(rng.integers(0, 4))
            _, Js, Jp = span_plane(center, width, plane, slot, kind)

            def fs(d):
                return span_plane(center + d[0], width + d[1], plane, slot, kind)[0]

            def fp(d):
                p = PlaneMinimal(plane.azimuth + d[0], plane.elevation + d[1], plane.distance + d[2])
                return span_plane(center, width, p, slot, kind)[0]

            check_jacobian(Js, fd_jacobian(fs, None, 2))
            check_jacobian(Jp, fd_jacobian(fp, None, 3))

    def test_room_plane_jacobians(self):
        self.check_span_plane_jacobians(FactorKind.ROOM_PLANE, 44)

    def test_corridor_plane_jacobians(self):
        self.check_span_plane_jacobians(FactorKind.CORRIDOR_PLANE, 45)

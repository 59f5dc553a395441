import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sgraph.geometry import (
    PlaneClass,
    PlaneHessian,
    PlaneMinimal,
    Pose3,
    classify_plane,
    from_minimal,
    inverse_compose,
    rot_exp,
    rot_log,
    skew,
    to_minimal,
    transform_plane,
    wrap_angle,
)


def random_pose(rng):
    w = rng.normal(0, 1, 3)
    t = rng.normal(0, 5, 3)
    return Pose3(rot_exp(w), t)


def tx(x):
    return Pose3(np.eye(3), np.array([x, 0.0, 0.0]))


def almost_equal(a: Pose3, b: Pose3, tol: float = 1e-9) -> bool:
    return np.allclose(a.rotation, b.rotation, atol=tol) and np.allclose(
        a.translation, b.translation, atol=tol
    )


def point_distance(plane: PlaneHessian, p: np.ndarray) -> float:
    """Signed distance of a point from a plane, along its normal."""
    return float(plane.normal @ p - plane.distance)


class TestPose:
    def test_compose_identity(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        assert almost_equal(Pose3.identity().compose(p), p)
        assert almost_equal(p.compose(Pose3.identity()), p)

    def test_collinear_translations_add(self):
        assert almost_equal(tx(1.0).compose(tx(2.0)), tx(3.0))

    def test_inverse_compose_self(self):
        rng = np.random.default_rng(1)
        p = random_pose(rng)
        assert almost_equal(inverse_compose(p, p), Pose3.identity())

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_pose(rng)
            assert almost_equal(p.compose(p.inverse()), Pose3.identity())

    def test_inverse_compose_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, q = random_pose(rng), random_pose(rng)
            assert almost_equal(inverse_compose(p, p.compose(q)), q)

    def test_rotation_orthonormality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            R = random_pose(rng).rotation
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(R) - 1.0) < 1e-9

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.normal(0, 1, 3)
            assert np.allclose(rot_log(rot_exp(w)), w, atol=1e-9)

    def test_log_near_pi(self):
        w = np.array([0.0, 0.0, math.pi - 1e-8])
        assert np.allclose(rot_log(rot_exp(w)), w, atol=1e-6)

    @pytest.mark.parametrize("theta", [math.pi, math.pi - 1e-7, math.pi - 5e-7, math.pi - 9e-7])
    def test_log_near_pi_about_off_axis_axes(self, theta):
        # the near-pi branch recovers the whole axis, not only the angle:
        # at pi about (0.6, 0.8, 0) it once came back 0.29 off R
        rng = np.random.default_rng(14)
        axes = [np.array([0.6, 0.8, 0.0]), np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)]
        axes += list(rng.normal(size=(200, 3)))
        for axis in axes:
            axis = axis / np.linalg.norm(axis)
            R = rot_exp(theta * axis)
            w = rot_log(R)
            assert np.linalg.norm(rot_exp(w) - R) <= 1e-6
            assert abs(np.linalg.norm(w) - theta) <= 1e-6
            # +axis and -axis are the same rotation at pi only
            assert min(np.linalg.norm(w - theta * axis), np.linalg.norm(w + theta * axis)) <= 1e-6
            if theta < math.pi - 5e-8:
                assert np.linalg.norm(w - theta * axis) <= 1e-6


class TestStacked:
    """`skew` and `rot_exp` on an (N, 3) stack equal their one-vector calls
    bit for bit, the rows below the small-angle threshold included."""

    @staticmethod
    def vectors():
        rng = np.random.default_rng(12)
        w = rng.normal(0, 1, (300, 3)) * 10.0 ** rng.uniform(-14, 0.5, (300, 1))
        w[0] = 0.0
        return w

    def test_skew(self):
        w = self.vectors()
        S = skew(w)
        u = np.random.default_rng(13).normal(0, 1, 3)
        for i, v in enumerate(w):
            assert S[i].tobytes() == skew(v).tobytes()
            assert np.allclose(skew(v) @ u, np.cross(v, u), rtol=0, atol=1e-15)

    def test_rot_exp(self):
        w = self.vectors()
        assert np.count_nonzero(np.linalg.norm(w, axis=1) < 1e-10) >= 20
        R = rot_exp(w)
        for i, v in enumerate(w):
            assert R[i].tobytes() == rot_exp(v).tobytes()


class TestTransformPlane:
    def test_identity_pose(self):
        plane = PlaneHessian([1.0, 0.0, 0.0], 5.0)
        out = transform_plane(Pose3.identity(), plane, to_sensor=True)
        assert np.allclose(out.normal, plane.normal)
        assert out.distance == pytest.approx(5.0)

    def test_translated_pose_to_sensor(self):
        # sensor +1 m along x: d_sensor = d - t.n = 4
        plane = PlaneHessian([1.0, 0.0, 0.0], 5.0)
        out = transform_plane(tx(1.0), plane, to_sensor=True)
        assert np.allclose(out.normal, [1, 0, 0])
        assert out.distance == pytest.approx(4.0)

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            pose = random_pose(rng)
            n = rng.normal(0, 1, 3)
            n /= np.linalg.norm(n)
            plane = PlaneHessian(n, abs(rng.normal(0, 5)))
            mid = transform_plane(pose, plane, to_sensor=False)
            back = transform_plane(pose, mid, to_sensor=True)
            assert np.allclose(back.normal, plane.normal, atol=1e-9)
            assert back.distance == pytest.approx(plane.distance, abs=1e-9)

    def test_incidence_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            pose = random_pose(rng)
            n = rng.normal(0, 1, 3)
            n /= np.linalg.norm(n)
            d = abs(rng.normal(0, 5)) + 0.1
            plane = PlaneHessian(n, d)
            # random point on the plane
            u = np.cross(n, [1.0, 0.3, 0.2])
            u /= np.linalg.norm(u)
            x = n * d + u * rng.normal(0, 3)
            assert abs(point_distance(plane, x)) < 1e-9
            out = transform_plane(pose, plane, to_sensor=False)
            assert abs(point_distance(out, pose.rotation @ x + pose.translation)) < 1e-9


class TestMinimal:
    def test_x_axis(self):
        m = to_minimal(PlaneHessian([1.0, 0.0, 0.0], 2.0))
        assert m.azimuth == pytest.approx(0.0)
        assert m.elevation == pytest.approx(0.0)
        assert m.distance == pytest.approx(2.0)

    def test_y_axis(self):
        m = to_minimal(PlaneHessian([0.0, 1.0, 0.0], 1.0))
        assert m.azimuth == pytest.approx(math.pi / 2)
        assert m.elevation == pytest.approx(0.0)

    def test_pole_convention(self):
        m = to_minimal(PlaneHessian([0.0, 0.0, 1.0], 1.0))
        assert m.azimuth == 0.0
        assert m.elevation == pytest.approx(math.pi / 2)

    @given(
        st.floats(-math.pi + 1e-6, math.pi),
        # keep clear of the poles, where the azimuth is pinned by convention
        st.floats(-math.pi / 2 + 2e-3, math.pi / 2 - 2e-3),
        st.floats(0.01, 100.0),
    )
    def test_roundtrip_identity(self, az, el, d):
        m = PlaneMinimal(az, el, d)
        back = to_minimal(from_minimal(m))
        assert wrap_angle(back.azimuth - az) == pytest.approx(0.0, abs=1e-9)
        assert back.elevation == pytest.approx(el, abs=1e-9)
        assert back.distance == pytest.approx(d)

    def test_hessian_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = rng.normal(0, 1, 3)
            n /= np.linalg.norm(n)
            if abs(n[2]) > 1.0 - 1e-6:
                continue
            p = PlaneHessian(n, abs(rng.normal(0, 10)))
            back = from_minimal(to_minimal(p))
            assert np.allclose(back.normal, p.normal, atol=1e-9)
            assert back.distance == pytest.approx(p.distance, abs=1e-9)


class TestClassify:
    @pytest.mark.parametrize(
        "n,expected",
        [
            ([0.9, 0.1, 0.1], PlaneClass.X_VERTICAL),
            ([0.1, 0.9, 0.1], PlaneClass.Y_VERTICAL),
            ([0.0, 0.0, 1.0], PlaneClass.HORIZONTAL),
            ([1.0, 0.0, 0.0], PlaneClass.X_VERTICAL),
        ],
    )
    def test_examples(self, n, expected):
        n = np.array(n, dtype=float)
        n /= np.linalg.norm(n)
        assert classify_plane(PlaneHessian(n, 1.0)) is expected

    def test_index_is_the_normal_axis(self):
        classes = (PlaneClass.X_VERTICAL, PlaneClass.Y_VERTICAL, PlaneClass.HORIZONTAL)
        assert [c.index for c in classes] == [0, 1, 2]

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = rng.normal(0, 1, 3)
            n /= np.linalg.norm(n)
            a = classify_plane(PlaneHessian(n, 1.0))
            b = classify_plane(PlaneHessian(-n, 1.0))
            assert a is b

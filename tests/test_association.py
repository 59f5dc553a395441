"""`SGraph.associate_plane`, which scores every same-class landmark in one
kernel call, against the per-landmark loop kept in `reference_factors`; and
`SGraph.predict_planes`, which moves every landmark into a keyframe's
sensor frame at once."""

import math

import numpy as np
import pytest

from sgraph.factors import Factor, FactorKind
from sgraph.geometry import (
    PlaneClass,
    PlaneHessian,
    PlaneMinimal,
    Pose3,
    from_minimal,
    rot_exp,
    to_minimal,
    transform_plane,
)
from sgraph.graph import NEW_LANDMARK, Keyframe, PlaneLandmark, SGraph
from sgraph.planes import PlaneDetection

import reference_factors

PLANE_INFO = np.diag([2500.0, 2500.0, 2500.0])


def graph_with_keyframe(pose=Pose3.identity(), odom_cov=np.eye(6) * 1e-4):
    g = SGraph()
    g.keyframes[0] = Keyframe(id=0, timestamp=0.0, pose=pose, odom_pose=pose, odom_cov=odom_cov)
    return g


def add_landmark(g, pid, az, el, d, cls):
    g.planes[pid] = PlaneLandmark(id=pid, params=PlaneMinimal(az, el, d), plane_class=cls,
                                  extent=np.ones(2))


def detection(normal, d):
    n = np.asarray(normal, dtype=float)
    return PlaneDetection(plane=PlaneHessian(n / np.linalg.norm(n), d), extent=np.ones(2))


def associate(g, det, gate=3.0, info=PLANE_INFO):
    """The batched choice, checked against the per-landmark loop."""
    got = g.associate_plane(det, 0, gate, info)
    assert got == reference_factors.associate_plane(g, det, 0, gate, info)
    return got


def test_nearest_of_several_and_first_in_dict_order_on_a_tie():
    g = graph_with_keyframe(Pose3.from_xyz_yaw(0.3, -0.2, 0.0, 0.05))
    add_landmark(g, 7, 0.0, 0.0, 4.0, PlaneClass.X_VERTICAL)
    add_landmark(g, 3, 0.02, 0.0, 4.05, PlaneClass.X_VERTICAL)  # nearest, twice
    add_landmark(g, 5, 0.02, 0.0, 4.05, PlaneClass.X_VERTICAL)
    add_landmark(g, 1, 0.02, 0.0, 4.05, PlaneClass.Y_VERTICAL)  # other class
    add_landmark(g, 9, math.pi, 0.0, 2.0, PlaneClass.X_VERTICAL)
    det = detection([math.cos(-0.03), math.sin(-0.03), 0.0], 3.75)
    assert associate(g, det) == 3
    # landmark 7 is inside the gate too, only farther
    inside = SGraph(keyframes=g.keyframes, planes={7: g.planes[7], 9: g.planes[9]})
    assert associate(inside, det) == 7
    # the first of the tied pair in dict order, not the smaller id
    del g.planes[3]
    g.planes[3] = PlaneLandmark(id=3, params=PlaneMinimal(0.02, 0.0, 4.05),
                                plane_class=PlaneClass.X_VERTICAL, extent=np.ones(2))
    assert associate(g, det) == 5


def test_floor_and_ceiling_landmarks_at_the_pole():
    pose = Pose3(rot_exp(np.array([2e-4, -1e-4, 0.7])), np.array([1.0, 2.0, 0.1]))
    g = graph_with_keyframe(pose)
    add_landmark(g, 0, 0.0, math.pi / 2, 2.9, PlaneClass.HORIZONTAL)  # ceiling
    add_landmark(g, 1, 0.0, -math.pi / 2, 0.1, PlaneClass.HORIZONTAL)  # floor
    add_landmark(g, 2, 1.3, math.pi / 2 - 3e-4, 2.7, PlaneClass.HORIZONTAL)
    add_landmark(g, 3, 0.0, 0.0, 4.0, PlaneClass.X_VERTICAL)
    # every horizontal landmark is predicted within rho < 1e-3 of the pole
    for pid in (0, 1, 2):
        az, el, _ = g.planes[pid].params.as_array()
        n_m = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
        assert math.hypot(*(pose.rotation.T @ n_m)[:2]) < 1e-3
    assert associate(g, detection([0.0, 0.0, 1.0], 2.8)) == 0
    assert associate(g, detection([2e-4, 0.0, 1.0], 2.62)) == 2
    assert associate(g, detection([0.0, 0.0, -1.0], 0.2)) == 1
    assert to_minimal(detection([0.0, 0.0, -1.0], 0.2).plane).azimuth == 0.0


def test_distance_exactly_at_the_gate_gives_a_new_landmark():
    # identity pose, no odometry uncertainty and unit information: the
    # residual is (0, 0, 2) exactly and the distance 2.0
    g = graph_with_keyframe(odom_cov=np.zeros((6, 6)))
    add_landmark(g, 0, 0.0, 0.0, 3.0, PlaneClass.X_VERTICAL)
    det = detection([1.0, 0.0, 0.0], 1.0)
    assert associate(g, det, gate=2.0, info=np.eye(3)) == NEW_LANDMARK
    assert associate(g, det, gate=math.nextafter(2.0, 3.0), info=np.eye(3)) == 0


def test_no_landmark_of_the_detection_class():
    g = graph_with_keyframe()
    det = detection([0.0, 1.0, 0.0], 2.0)
    assert associate(g, det) == NEW_LANDMARK
    add_landmark(g, 0, 0.0, 0.0, 2.0, PlaneClass.X_VERTICAL)
    add_landmark(g, 1, 0.0, math.pi / 2, 2.0, PlaneClass.HORIZONTAL)
    assert associate(g, det) == NEW_LANDMARK


def test_candidates_after_a_merge_deleted_a_landmark():
    g = graph_with_keyframe(Pose3.from_xyz_yaw(-0.5, 0.4, 0.0, -0.1))
    add_landmark(g, 0, math.pi / 2, 0.0, 3.3, PlaneClass.Y_VERTICAL)
    add_landmark(g, 1, math.pi / 2 + 0.01, 0.0, 3.0, PlaneClass.Y_VERTICAL)
    add_landmark(g, 2, math.pi / 2, 0.0, 3.05, PlaneClass.Y_VERTICAL)
    det = detection([-math.sin(0.11), math.cos(0.11), 0.0], 2.6)
    assert associate(g, det) == 1
    g.merge_planes(0, 1)
    assert 1 not in g.planes
    assert associate(g, det) == 2


def test_merge_into_a_missing_landmark_leaves_the_graph_unchanged():
    g = graph_with_keyframe()
    add_landmark(g, 0, 0.0, 0.0, 2.0, PlaneClass.X_VERTICAL)
    g.factors.append(Factor(FactorKind.POSE_PLANE, (("kf", 0), ("plane", 0)),
                            PlaneMinimal(0.0, 0.0, 2.0), np.eye(3)))
    with pytest.raises(KeyError):
        g.merge_planes(99, 0)
    assert g.factors[0].variables == (("kf", 0), ("plane", 0))
    assert set(g.planes) == {0}


def test_random_graphs_match_the_per_landmark_loop():
    rng = np.random.default_rng(11)
    chosen = set()
    for trial in range(60):
        pose = Pose3(rot_exp(rng.normal(0, [0.02, 0.02, 1.0])), rng.normal(0, 2.0, 3))
        cov = np.diag(rng.uniform(1e-6, 1e-3, 6))
        g = graph_with_keyframe(pose, cov)
        for pid in rng.permutation(12):
            az = rng.uniform(-math.pi, math.pi)
            el = rng.choice([0.0, math.pi / 2, -math.pi / 2]) + rng.normal(0, 1e-3)
            cls = (PlaneClass.HORIZONTAL if abs(el) > 1.0 else
                   PlaneClass.X_VERTICAL if abs(math.cos(az)) > abs(math.sin(az)) else
                   PlaneClass.Y_VERTICAL)
            add_landmark(g, int(pid), az, el, rng.uniform(0.1, 6.0), cls)
        for lm in list(g.planes.values())[:4]:
            # a detection of the landmark, predicted into the sensor frame and perturbed
            az, el, d = lm.params.as_array()
            n_m = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
            n_l = pose.rotation.T @ n_m + rng.normal(0, 0.02, 3)
            d_l = d - float(pose.translation @ n_m) + rng.normal(0, 0.05)
            if d_l < 0.0:
                n_l, d_l = -n_l, -d_l
            chosen.add(associate(g, detection(n_l, d_l), gate=float(rng.uniform(1.0, 40.0))))
    assert NEW_LANDMARK in chosen and len(chosen) > 5


def test_opposite_facing_planes_at_equal_distance_are_never_associated():
    # walls either side of the sensor, and the floor and ceiling, at equal
    # distance: the same unsigned normal, but a facing differing by pi
    rng = np.random.default_rng(12)
    pairs = [
        ((0.0, 0.0), (math.pi, 0.0), PlaneClass.X_VERTICAL),
        ((math.pi / 2, 0.0), (-math.pi / 2, 0.0), PlaneClass.Y_VERTICAL),
        ((0.0, math.pi / 2), (0.0, -math.pi / 2), PlaneClass.HORIZONTAL),
    ]
    for _ in range(20):
        yaw = rng.uniform(-0.3, 0.3)
        pose = Pose3(rot_exp(np.array([*rng.normal(0, 1e-3, 2), yaw])), np.zeros(3))
        for (az_a, el_a), (az_b, el_b), cls in pairs:
            g = graph_with_keyframe(pose, odom_cov=np.eye(6) * 1e-3)
            d = rng.uniform(0.5, 4.0)
            add_landmark(g, 0, az_a, el_a, d, cls)
            # the detection of the opposite plane, predicted into the sensor frame
            az, el = az_b, el_b
            n_m = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
            det = detection(pose.rotation.T @ n_m, d)
            assert associate(g, det, gate=30.0) == NEW_LANDMARK
            # while the plane itself, observed again, is associated
            az, el = az_a, el_a
            n_m = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
            assert associate(g, detection(pose.rotation.T @ n_m, d), gate=30.0) == 0


def test_predicted_planes_equal_transform_plane():
    pose = Pose3(rot_exp(np.array([0.02, -0.01, 0.9])), np.array([5.0, 2.0, 0.1]))
    g = graph_with_keyframe(pose)
    assert g.predict_planes(0).shape == (0, 4)
    add_landmark(g, 4, 0.0, math.pi / 2, 2.9, PlaneClass.HORIZONTAL)  # ceiling, at the pole
    add_landmark(g, 2, 0.0, -math.pi / 2, 0.1, PlaneClass.HORIZONTAL)  # floor, at the pole
    add_landmark(g, 7, 0.0, 0.0, 4.0, PlaneClass.X_VERTICAL)  # x = 4, behind the sensor at x = 5
    add_landmark(g, 1, 1.2, 0.01, 3.0, PlaneClass.Y_VERTICAL)
    rows = g.predict_planes(0)
    assert rows.shape == (4, 4)
    for row, lm in zip(rows, g.planes.values()):  # `planes` order
        want = transform_plane(pose, from_minimal(lm.params), to_sensor=True)
        assert row == pytest.approx([*want.normal, want.distance], abs=1e-12)
    # the x = 4 wall is behind the sensor: d - t . n is -1, so both signs flip
    n_m = from_minimal(g.planes[7].params).normal
    assert 4.0 - pose.translation @ n_m == pytest.approx(-1.0)
    assert rows[2, 3] == pytest.approx(1.0)
    assert rows[2, :3] == pytest.approx(-(pose.rotation.T @ n_m))

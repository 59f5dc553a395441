"""Property-based invariants spanning geometry, factors, topology, metrics."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from sgraph.factors import FactorKind
from sgraph.geometry import (
    PlaneHessian,
    Pose3,
    inverse_compose,
    rot_exp,
    transform_plane,
)
from sgraph.metrics import TrajectoryPair, ate
from sgraph.topology import detect_corridor, detect_room

from test_factors import pose_between, span_plane
from test_topology import CFG as TOPO_CFG
from test_topology import wall

finite = st.floats(-10.0, 10.0, allow_nan=False)


def poses(draw):
    t = np.array([draw(finite), draw(finite), draw(finite)])
    w = np.array(
        [draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))]
    )
    return Pose3(rot_exp(w), t)


@st.composite
def pose_strategy(draw):
    return poses(draw)


@given(pose_strategy(), pose_strategy())
def test_inverse_compose_cancels_compose(p, q):
    back = inverse_compose(p, p.compose(q))
    assert np.max(np.abs(back.rotation - q.rotation)) < 1e-9
    assert np.max(np.abs(back.translation - q.translation)) < 1e-9


@given(pose_strategy(), st.floats(0.5, 20.0), st.floats(-math.pi, math.pi), st.floats(-1.2, 1.2))
def test_transform_plane_preserves_incidence(pose, d, az, el):
    n = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
    plane = PlaneHessian(n, d)
    # a point on the plane, moved with the pose, lies on the moved plane
    x = n * d
    moved = transform_plane(pose, plane, to_sensor=True)
    y = pose.rotation.T @ (x - pose.translation)
    assert abs(float(moved.normal @ y) - moved.distance) < 1e-9


@given(pose_strategy(), pose_strategy())
def test_relative_pose_residual_zero_on_exact_measurement(a, b):
    meas = inverse_compose(a, b)
    r, _, _ = pose_between(a, b, meas)
    assert np.max(np.abs(r)) < 1e-9


@st.composite
def room_walls(draw):
    dx1 = draw(st.floats(-8.0, 8.0))
    dx2 = dx1 + draw(st.floats(1.0, 8.0))
    dy1 = draw(st.floats(-8.0, 8.0))
    dy2 = dy1 + draw(st.floats(1.0, 8.0))
    obs = ((dx1 + dx2) / 2.0, (dy1 + dy2) / 2.0)
    return (
        (wall(0, "x", dx1, observer=obs), wall(1, "x", dx2, observer=obs)),
        (wall(2, "y", dy1, observer=obs), wall(3, "y", dy2, observer=obs)),
        (dx1, dx2, dy1, dy2),
    )


@given(room_walls())
@settings(max_examples=200)
def test_room_center_identities_and_zero_residuals(data):
    x_pair, y_pair, (dx1, dx2, dy1, dy2) = data
    room = detect_room(x_pair, y_pair, TOPO_CFG)
    assert room is not None
    x, y = room
    # center identities: low room edge sits on the low wall of each axis
    assert abs((x.center - x.width / 2.0) - dx1) < 1e-12
    assert abs((y.center - y.width / 2.0) - dy1) < 1e-12
    assert abs((x.center + x.width / 2.0) - dx2) < 1e-12
    assert abs((y.center + y.width / 2.0) - dy2) < 1e-12
    # residuals exactly zero for the creating observation
    for slot in range(4):
        plane = x_pair[slot] if slot < 2 else y_pair[slot - 2]
        span = room[slot // 2]
        r, _, _ = span_plane(span.center, span.width, plane.params, slot)
        assert abs(r[0]) < 1e-12


@given(st.floats(-8.0, 8.0), st.floats(0.6, 2.4))
def test_corridor_center_identity_and_zero_residuals(d1, width):
    d2 = d1 + width
    obs = ((d1 + d2) / 2.0, 0.0)
    a, b = wall(0, "x", d1, observer=obs), wall(1, "x", d2, observer=obs)
    corr = detect_corridor((a, b), TOPO_CFG)
    assert corr is not None
    assert abs((corr.center - corr.width / 2.0) - d1) < 1e-12
    for slot, plane in enumerate((a, b)):
        r, _, _ = span_plane(corr.center, corr.width, plane.params, slot, FactorKind.CORRIDOR_PLANE)
        assert abs(r[0]) < 1e-12


@given(pose_strategy())
@settings(max_examples=50)
def test_ate_rigid_invariance(T):
    rng = np.random.default_rng(0)
    traj = [
        (0.5 * i, Pose3(rot_exp(rng.normal(0, 0.4, 3)), rng.normal(0, 5.0, 3)))
        for i in range(20)
    ]
    moved = [(t, T.compose(p)) for t, p in traj]
    assert ate(TrajectoryPair(moved, traj)) < 1e-9

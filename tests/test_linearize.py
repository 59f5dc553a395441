"""The batched kernels and normal equations against a second implementation.

`reference_factors` keeps the per-factor kernels that `sgraph.factors`
replaced, written one factor at a time with their own formulas; it is the
reference: the batched residuals and Jacobian blocks must match it per
factor, and the assembled H, g and cost must match a dense J^T J built
from it.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sgraph.factors import KINDS, LOCAL_DIM, Factor, FactorKind
from sgraph.geometry import PlaneClass, PlaneMinimal, Pose3, from_minimal, rot_exp, wrap_angle
from sgraph.graph import CorridorNode, Keyframe, PlaneLandmark, RoomNode, SGraph
from sgraph.linearize import BatchedFactors

from reference_factors import (
    evaluate_factor,
    huber_cost_and_weight,
    measurement_frame,
    plane_retract,
    pose_retract,
)
from test_io import sample_graph
from test_solver import variable_state

TOL = 1e-9
PLANE_INFO = np.diag([2500.0, 2500.0, 2500.0])


def add_kf(g, i, pose):
    g.keyframes[i] = Keyframe(id=i, timestamp=float(i), pose=pose, odom_pose=pose,
                              odom_cov=np.eye(6) * 1e-4)


def add_plane(g, pid, az, el, d, cls=PlaneClass.X_VERTICAL):
    g.planes[pid] = PlaneLandmark(id=pid, params=PlaneMinimal(az, el, d), plane_class=cls,
                                  extent=np.ones(2), centroid=np.zeros(3))


def observe(g, kf_id, pid, meas, robust=True, info=PLANE_INFO):
    g.factors.append(Factor(FactorKind.POSE_PLANE, (("kf", kf_id), ("plane", pid)),
                            PlaneMinimal(*meas), info, robust=robust))


def between(g, a, b, meas, kind=FactorKind.LOOP_CLOSURE, robust=True):
    g.factors.append(Factor(kind, (("kf", a), ("kf", b)), meas, np.eye(6) * 37.5,
                            robust=robust))


def first_columns(bf):
    """The first column in H of each variable that has columns: every
    variable but the gauge keyframe."""
    return {
        (kind, vid): int(bf.columns[kind][row, 0])
        for kind, ids in bf.ids.items()
        for row, vid in enumerate(ids)
        if bf.columns[kind][row, 0] >= 0
    }


def assert_matches_reference(graph):
    """Every factor's batched residual and Jacobian blocks equal the
    reference's; returns the kinds seen. Azimuth residuals are angles and are
    compared on the circle, where +pi and -pi meet."""
    seen = set()
    bf = BatchedFactors(graph)
    for block, r, J in bf.evaluate(bf.values(graph)):
        for row, fi in enumerate(block.factor_index):
            f = graph.factors[fi]
            r_ref, jacs = evaluate_factor(graph, f)
            if f.kind is FactorKind.POSE_PLANE:
                assert abs(wrap_angle(r[row][0] - r_ref[0])) <= TOL
                r_ref = np.concatenate([[r[row][0]], r_ref[1:]])
            np.testing.assert_allclose(r[row], r_ref, rtol=TOL, atol=TOL)
            split = LOCAL_DIM[f.variables[0][0]]
            np.testing.assert_allclose(J[row][:, :split], jacs[f.variables[0]], rtol=TOL, atol=TOL)
            np.testing.assert_allclose(J[row][:, split:], jacs[f.variables[1]], rtol=TOL, atol=TOL)
            seen.add(fi)
    assert seen == set(range(len(graph.factors)))
    return {f.kind for f in graph.factors}


def dense_reference(graph, huber_delta=1.0):
    """H, g, cost and per-layer cost from the reference, one factor at a time."""
    bf = BatchedFactors(graph)
    offsets, dim = first_columns(bf), bf.dim
    H, g, cost = np.zeros((dim, dim)), np.zeros(dim), 0.0
    layers = dict.fromkeys(("tracking", "plane", "room", "corridor"), 0.0)
    for f in graph.factors:
        r, jacs = evaluate_factor(graph, f)
        L = f.sqrt_information()
        wr = L @ r
        s = float(wr @ wr)
        weight = 1.0
        if f.robust:
            s, weight = huber_cost_and_weight(s, huber_delta)
        cost += s
        layers[KINDS[f.kind].layer] += s
        scale = math.sqrt(weight)
        blocks = [(offsets[k], scale * (L @ J)) for k, J in jacs.items() if k in offsets]
        for oi, Ji in blocks:
            g[oi : oi + Ji.shape[1]] += Ji.T @ (scale * wr)
            for oj, Jj in blocks:
                H[oi : oi + Ji.shape[1], oj : oj + Jj.shape[1]] += Ji.T @ Jj
    return H, g, cost, layers


def assert_normal_equations_match(graph, huber_delta=1.0):
    H_ref, g_ref, cost_ref, layers_ref = dense_reference(graph, huber_delta)
    bf = BatchedFactors(graph)
    v = bf.values(graph)
    H, g, cost = bf.normal_equations(v, huber_delta)
    assert np.max(np.abs(H - H_ref)) <= 1e-12 * np.max(np.abs(H_ref))
    assert np.max(np.abs(g - g_ref)) <= 1e-12 * max(np.max(np.abs(g_ref)), 1e-300)
    assert cost == pytest.approx(cost_ref, rel=1e-12)
    assert bf.cost(v, huber_delta) == cost
    layers = bf.layer_costs(v, huber_delta)
    assert layers == pytest.approx(layers_ref, rel=1e-12, abs=1e-300)
    np.testing.assert_array_equal(H, H.T)


def tilted(roll, pitch, t=(0.3, -0.4, 1.1)):
    return Pose3(rot_exp(np.array([roll, pitch, 0.0])), np.array(t))


def test_every_factor_kind_is_in_kinds():
    assert set(KINDS) == set(FactorKind)
    # the kinds of one layer are one block: they share kernel and stacking
    for a in FactorKind:
        for b in FactorKind:
            if KINDS[a].layer == KINDS[b].layer:
                assert KINDS[a] is KINDS[b]


class TestResidualsAndJacobians:
    def test_sample_graph_every_kind(self):
        g = sample_graph()
        assert assert_matches_reference(g) == set(FactorKind)

    def test_floor_and_ceiling_planes_at_and_near_the_pole(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        tilts = [(0.0, 0.0), (2e-4, 0.0), (0.0, -5e-4), (4e-4, 6e-4), (9e-4, 0.0),
                 (0.0, 1.5e-3), (-2e-3, 1e-3), (3e-3, -3e-3), (0.05, 0.02)]
        for i, (roll, pitch) in enumerate(tilts, start=1):
            add_kf(g, i, tilted(roll, pitch))
        planes = [(0.0, math.pi / 2, 2.5), (0.0, -math.pi / 2, 1.0),
                  (0.7, math.pi / 2 - 5e-4, 2.0), (-2.0, -math.pi / 2 + 8e-4, 1.2)]
        for pid, params in enumerate(planes):
            add_plane(g, pid, *params, cls=PlaneClass.HORIZONTAL)
        rho = []
        for i, _ in enumerate(tilts, start=1):
            R = g.keyframes[i].pose.rotation
            for pid, (az, el, d) in enumerate(planes):
                n_m = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az),
                                math.sin(el)])
                rho.append(float(np.hypot(*(R.T @ n_m)[:2])))
                observe(g, i, pid, (0.01 * i, el - 0.001 * pid, d + 0.02))
        # predictions at the pole and on both sides of rho = 1e-3, where the
        # residual in the map's (azimuth, elevation) used to pin the azimuth
        assert min(rho) < 1e-3 and any(1e-3 < x < 2e-3 for x in rho)
        assert_matches_reference(g)
        assert_normal_equations_match(g)

    def test_closest_point_sign_flip(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        add_kf(g, 1, Pose3(rot_exp(np.array([0.1, -0.05, 0.4])), np.array([5.0, 0.5, 0.2])))
        add_kf(g, 2, Pose3.from_xyz_yaw(3.9, -4.0, 0.0, 2.0))
        add_plane(g, 0, 0.0, 0.0, 2.0)
        add_plane(g, 1, -math.pi / 2, 0.0, 3.0, cls=PlaneClass.Y_VERTICAL)
        for i in (1, 2):
            for pid in (0, 1):
                observe(g, i, pid, (0.2, 0.01, 1.0))
        flipped = []
        for f in g.factors:
            plane = from_minimal(g.planes[f.variables[1][1]].params)
            t = g.keyframes[f.variables[0][1]].pose.translation
            flipped.append(plane.distance - float(t @ plane.normal))
        assert min(flipped) < 0.0 < max(flipped)
        assert_matches_reference(g)
        assert_normal_equations_match(g)

    def test_azimuth_wraps_across_pi(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        add_kf(g, 1, Pose3.from_xyz_yaw(0.2, 0.1, 0.0, 0.03))
        add_kf(g, 2, Pose3.from_xyz_yaw(-0.2, 0.1, 0.0, -0.03))
        add_plane(g, 0, math.pi - 0.01, 0.0, 3.0)
        add_plane(g, 1, -math.pi + 0.005, 0.0, 2.0)
        for i in (1, 2):
            observe(g, i, 0, (-math.pi + 0.01, 0.0, 3.0))
            observe(g, i, 1, (math.pi - 0.005, 0.0, 2.0))
        bf = BatchedFactors(g)
        for block, r, _ in bf.evaluate(bf.values(g)):
            assert np.all(np.abs(r[:, 0]) < 0.1)  # wrapped, not ~2*pi
        assert_matches_reference(g)

    def test_loop_closure_with_rotation_near_pi(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        add_kf(g, 1, Pose3.from_xyz_yaw(1.0, 2.0, 0.0, math.pi))
        axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        add_kf(g, 2, Pose3(rot_exp((math.pi - 5e-7) * axis), np.array([0.5, 0.0, 0.1])))
        add_kf(g, 3, Pose3.from_xyz_yaw(2.0, 0.0, 0.0, 0.3))
        between(g, 0, 1, Pose3.identity())
        between(g, 0, 2, Pose3(np.eye(3), np.array([0.4, 0.1, 0.0])))
        between(g, 0, 3, Pose3.from_xyz_yaw(1.9, 0.1, 0.0, 0.1), kind=FactorKind.ODOMETRY)
        between(g, 1, 3, Pose3.identity())
        angles = [float(np.linalg.norm(evaluate_factor(g, f)[0][3:])) for f in g.factors]
        assert sum(a > math.pi - 1e-6 for a in angles) == 2
        assert any(a < math.pi - 1e-3 for a in angles)
        assert_matches_reference(g)

    def test_room_slots_and_corridor_slots_on_both_axes(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        # normals on both sides of each axis, so the axis sign is +1 and -1
        add_plane(g, 0, math.pi, 0.0, 1.1)  # x = -1.1
        add_plane(g, 1, 0.0, 0.0, 2.9)  # x = 2.9
        add_plane(g, 2, -math.pi / 2, 0.0, 1.4, cls=PlaneClass.Y_VERTICAL)  # y = -1.4
        add_plane(g, 3, math.pi / 2, 0.0, 1.6, cls=PlaneClass.Y_VERTICAL)  # y = 1.6
        add_plane(g, 4, 0.02, 0.0, 6.0)
        add_plane(g, 5, 0.0, 0.01, 8.1)
        add_plane(g, 6, math.pi / 2 - 0.01, 0.0, 5.0, cls=PlaneClass.Y_VERTICAL)
        add_plane(g, 7, -math.pi / 2, 0.0, 0.1, cls=PlaneClass.Y_VERTICAL)
        g.add_node(RoomNode(0, np.array([0.95, 0.05]), np.array([4.1, 2.9]), (0, 1, 2, 3)), 100.0)
        g.add_node(CorridorNode(0, PlaneClass.X_VERTICAL, np.array([7.0, 0.3]), 2.2, (4, 5)),
                       100.0)
        g.add_node(CorridorNode(0, PlaneClass.Y_VERTICAL, np.array([-3.0, 2.5]), 4.8, (7, 6)),
                       100.0)
        slots = {(f.kind, f.measurement) for f in g.factors}
        assert {s for k, s in slots if k is FactorKind.ROOM_PLANE} == {0, 1, 2, 3}
        assert {s for k, s in slots if k is FactorKind.CORRIDOR_PLANE} == {0, 1}
        assert_matches_reference(g)
        assert_normal_equations_match(g)

    def test_invalid_slot_rejected(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        add_plane(g, 0, 0.0, 0.0, 1.0)
        g.rooms[0] = RoomNode(0, np.zeros(2), np.ones(2), (0, 0, 0, 0))
        g.factors.append(Factor(FactorKind.ROOM_PLANE, (("room", 0), ("plane", 0)), 4,
                                np.array([[100.0]])))
        with pytest.raises(ValueError):
            BatchedFactors(g)


class TestNormalEquations:
    def test_sample_graph_matches_dense_reference(self):
        g = sample_graph()
        assert_normal_equations_match(g)
        assert_normal_equations_match(g, huber_delta=0.1)

    def test_robust_factors_beyond_huber_delta(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        add_kf(g, 1, Pose3.from_xyz_yaw(1.0, 0.0, 0.0, 0.1))
        add_plane(g, 0, 0.0, 0.0, 4.0)
        add_plane(g, 1, math.pi / 2, 0.0, 2.0, cls=PlaneClass.Y_VERTICAL)
        observe(g, 1, 0, (0.1, 0.0, 3.0))  # off by ~0.1 rad: far beyond delta
        observe(g, 1, 1, (math.pi / 2 - 0.1, 0.0, 2.0 + 1e-4))
        observe(g, 0, 0, (0.0, 0.0, 4.0 + 1e-4))  # inside delta
        observe(g, 0, 1, (math.pi / 2, 0.0, 2.5), robust=False)  # not robust, large
        between(g, 0, 1, Pose3.from_xyz_yaw(1.5, 0.0, 0.0, 0.1))  # beyond delta
        s = []
        for f in g.factors:
            wr = f.sqrt_information() @ evaluate_factor(g, f)[0]
            s.append(float(wr @ wr))
        robust = [f.robust for f in g.factors]
        assert any(x > 1.0 and r for x, r in zip(s, robust))
        assert any(x <= 1.0 and r for x, r in zip(s, robust))
        assert any(x > 1.0 and not r for x, r in zip(s, robust))
        assert_normal_equations_match(g)

    def test_gauge_keyframe_excluded(self):
        g = SGraph()
        add_kf(g, 0, Pose3.from_xyz_yaw(0.1, 0.2, 0.0, 0.3))
        add_kf(g, 1, Pose3.from_xyz_yaw(1.0, 0.0, 0.0, 0.1))
        between(g, 0, 1, Pose3.from_xyz_yaw(1.1, 0.1, 0.0, -0.2), robust=False)
        bf = BatchedFactors(g)
        H, grad, _ = bf.normal_equations(bf.values(g), 1.0)
        f = g.factors[0]
        r, jacs = evaluate_factor(g, f)
        L = f.sqrt_information()
        Jb = L @ jacs[("kf", 1)]
        assert H.shape == (6, 6)
        np.testing.assert_allclose(H, Jb.T @ Jb, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad, Jb.T @ (L @ r), rtol=1e-12, atol=1e-12)

    def test_sample_graph_gauge_columns(self):
        g = sample_graph()
        bf = BatchedFactors(g)
        offsets, dim = first_columns(bf), bf.dim
        assert ("kf", 0) not in offsets
        assert dim == 6 * 2 + 3 * 2 + 4 + 2
        np.testing.assert_array_equal(bf.columns["kf"][0], [-1] * 6)
        # keyframes by id, then planes, rooms and corridors, packed
        assert offsets == {("kf", 1): 0, ("kf", 2): 6, ("plane", 0): 12, ("plane", 1): 15,
                           ("room", 0): 18, ("corridor", 0): 22}
        for kind, cols in bf.columns.items():
            free = cols[cols[:, 0] >= 0]
            np.testing.assert_array_equal(free, free[:, :1] + np.arange(LOCAL_DIM[kind]))
        H, _, _ = bf.normal_equations(bf.values(g), 1.0)
        assert H.shape == (dim, dim)

    def test_gauge_is_the_smallest_keyframe_id(self):
        g = SGraph()
        for i in (4, 2, 7):
            add_kf(g, i, Pose3.from_xyz_yaw(0.1 * i, 0.0, 0.0, 0.0))
        bf = BatchedFactors(g)
        assert bf.ids["kf"] == [2, 4, 7]
        assert first_columns(bf) == {("kf", 4): 0, ("kf", 7): 6}
        assert bf.dim == 12


class TestRetractAndWrite:
    """`retract` moves the gathered values as the per-variable updates do:
    poses as the reference's `pose_retract`, the plane normal along a great
    circle as its `plane_retract`, everything else additive; `write`
    stores them back."""

    @staticmethod
    def solve_setup(g):
        bf = BatchedFactors(g)
        return bf, first_columns(bf), bf.values(g)

    def test_poses_match_pose_retract_bit_for_bit(self):
        g = sample_graph()
        rng = np.random.default_rng(5)
        angles = [1e-13, 3e-11, 9e-11, 2e-7, 0.4, 1.7, 3.1]
        for i, _ in enumerate(angles, start=3):
            # with R = I the product keeps the series' second-order term,
            # which a tilted R rounds away
            R = np.eye(3) if i % 2 else rot_exp(rng.normal(0, 1.0, 3))
            add_kf(g, i, Pose3(R, rng.normal(0, 3.0, 3)))
        bf, offsets, v = self.solve_setup(g)
        delta = rng.normal(0, 0.5, bf.dim)
        for i, theta in enumerate(angles, start=3):
            axis = rng.normal(size=3)
            delta[offsets[("kf", i)] + 3 : offsets[("kf", i)] + 6] = theta * axis / np.linalg.norm(axis)
        moved = bf.retract(v, delta)
        for row, k in enumerate(bf.ids["kf"]):
            if ("kf", k) not in offsets:
                continue
            off = offsets[("kf", k)]
            ref = pose_retract(g.keyframes[k].pose, delta[off : off + 6])
            assert moved.rotations[row].tobytes() == ref.rotation.tobytes()
            assert moved.translations[row].tobytes() == ref.translation.tobytes()

    def test_gauge_keyframe_does_not_move(self):
        g = SGraph()
        # yaw 0 leaves -0.0 entries, which multiplying by an identity would turn to +0.0
        add_kf(g, 0, Pose3.from_xyz_yaw(0.4, -0.3, 0.0, 0.0))
        add_kf(g, 1, Pose3.from_xyz_yaw(1.0, 0.0, 0.0, 0.1))
        between(g, 0, 1, Pose3.from_xyz_yaw(1.1, 0.1, 0.0, -0.2))
        bf, offsets, v = self.solve_setup(g)
        assert np.signbit(v.rotations[0]).any()
        moved = bf.retract(v, np.full(bf.dim, 0.3))
        assert moved.rotations[0].tobytes() == v.rotations[0].tobytes()
        assert moved.translations[0].tobytes() == v.translations[0].tobytes()
        assert moved.translations[1].tobytes() != v.translations[1].tobytes()
        before = g.keyframes[0].pose
        bf.write(g, moved)
        assert g.keyframes[0].pose.rotation.tobytes() == before.rotation.tobytes()
        assert g.keyframes[0].pose.translation.tobytes() == before.translation.tobytes()

    def test_azimuth_wraps_across_pi(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        add_plane(g, 0, math.pi - 0.01, 0.0, 3.0)
        add_plane(g, 1, -math.pi + 0.005, 0.02, 2.0)
        bf, offsets, v = self.solve_setup(g)
        delta = np.array([0.03, 0.001, 0.1, -0.02, -0.003, 0.2])
        moved = bf.retract(v, delta)
        assert moved.planes[0, 0] < -math.pi + 0.03 and moved.planes[1, 0] > math.pi - 0.02
        bf.write(g, moved)
        for pid, params in ((0, (math.pi - 0.01, 0.0, 3.0)), (1, (-math.pi + 0.005, 0.02, 2.0))):
            d = delta[offsets[("plane", pid)] :][:3]
            expected = plane_retract(PlaneMinimal(*params), d).as_array()
            np.testing.assert_allclose(g.planes[pid].params.as_array(), expected, rtol=0, atol=1e-15)
        # along the equator the step is the azimuth step
        assert g.planes[0].params.azimuth == pytest.approx(wrap_angle(math.pi - 0.01 + 0.03))

    def test_planes_step_over_the_pole(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        add_plane(g, 0, 0.0, math.pi / 2, 2.5, cls=PlaneClass.HORIZONTAL)
        add_plane(g, 1, 2.0, -math.pi / 2 + 1e-3, 1.0, cls=PlaneClass.HORIZONTAL)
        add_plane(g, 2, -0.4, 0.3, 4.0)
        bf, offsets, v = self.solve_setup(g)
        rng = np.random.default_rng(9)
        for scale in (1e-12, 1e-6, 1e-3, 0.3):
            delta = rng.normal(0.0, scale, bf.dim)
            moved = bf.retract(v, delta)
            for row, pid in enumerate(bf.ids["plane"]):
                d = delta[offsets[("plane", pid)] :][:3]
                expected = plane_retract(g.planes[pid].params, d)
                n = from_minimal(PlaneMinimal(*moved.planes[row])).normal
                np.testing.assert_allclose(n, from_minimal(expected).normal, rtol=0, atol=1e-14)
                assert moved.planes[row, 2] == expected.distance
                # the normal turns by the norm of the tangent step
                before = from_minimal(g.planes[pid].params).normal
                turned = math.acos(min(1.0, float(n @ before)))
                assert turned == pytest.approx(math.hypot(d[0], d[1]), rel=1e-6, abs=1e-7)

    def test_corridor_cross_axis_center_untouched_on_both_axes(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        g.add_node(RoomNode(0, np.array([0.95, 0.05]), np.array([4.1, 2.9]), (0, 1, 2, 3)), 100.0)
        g.add_node(CorridorNode(0, PlaneClass.X_VERTICAL, np.array([7.0, 0.3]), 2.2, (4, 5)),
                       100.0)
        g.add_node(CorridorNode(0, PlaneClass.Y_VERTICAL, np.array([-3.0, 2.5]), 4.8, (7, 6)),
                       100.0)
        for pid in range(8):
            add_plane(g, pid, 0.0, 0.0, 1.0 + pid)
        bf, offsets, v = self.solve_setup(g)
        delta = np.random.default_rng(2).normal(0, 0.1, bf.dim)
        bf.write(g, bf.retract(v, delta))
        room = delta[offsets[("room", 0)] :][:4]
        assert g.rooms[0].center.tolist() == [0.95 + room[0], 0.05 + room[1]]
        assert g.rooms[0].widths.tolist() == [4.1 + room[2], 2.9 + room[3]]
        x, y = (delta[offsets[("corridor", c)] :][:2] for c in (0, 1))
        assert g.corridors[0].center.tolist() == [7.0 + x[0], 0.3]
        assert g.corridors[0].width == 2.2 + x[1]
        assert g.corridors[1].center.tolist() == [-3.0, 2.5 + y[0]]
        assert g.corridors[1].width == 4.8 + y[1]

    def test_write_of_gathered_values_changes_nothing(self):
        g = sample_graph()
        before = variable_state(g)
        bf, _, v = self.solve_setup(g)
        bf.write(g, v)
        assert variable_state(g) == before


# -- property: random poses and planes, normals near the pole included -------

angle = st.floats(-math.pi, math.pi, allow_nan=False)
rotvec = st.tuples(*[st.floats(-1.5, 1.5, allow_nan=False)] * 3)
position = st.tuples(*[st.floats(-6.0, 6.0, allow_nan=False)] * 3)
elevation = st.one_of(
    st.floats(-math.pi / 2, math.pi / 2, allow_nan=False),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.0, 3e-3)).map(
        lambda p: p[0] * (math.pi / 2 - p[1])
    ),
)
tilt = st.one_of(rotvec, st.tuples(*[st.floats(-3e-3, 3e-3)] * 2, angle))


@given(tilt, position, rotvec, position, angle, elevation, st.floats(0.05, 8.0),
       st.tuples(angle, st.floats(-1.5, 1.5), st.floats(0.0, 8.0)), st.booleans())
@settings(max_examples=150, deadline=None)
def test_random_poses_and_planes_match_reference(w1, t1, w2, t2, az, el, d, meas, robust):
    pose = Pose3(rot_exp(np.array(w1)), np.array(t1))
    g = SGraph()
    add_kf(g, 0, Pose3(rot_exp(np.array(w2)), np.array(t2)))
    add_kf(g, 1, pose)
    add_plane(g, 0, az, el, d)
    observe(g, 1, 0, meas, robust=robust)
    observe(g, 0, 0, (meas[0] + 0.1, meas[1], meas[2]), robust=robust)
    between(g, 0, 1, Pose3(rot_exp(np.array(w1) * 0.5), np.array(t2)), robust=robust)
    # stay off the residual's singular points, where a last-digit
    # difference legitimately selects another branch or the Jacobian
    # diverges: d = 0 (sign flip) and the predicted normal 90 degrees off
    # the measured one (the poles of the measurement's frame)
    n_m = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
    for f in g.factors:
        if f.kind is not FactorKind.POSE_PLANE:
            continue
        pose = g.keyframes[f.variables[0][1]].pose
        d_l = d - float(pose.translation @ n_m)
        assume(abs(d_l) > 1e-9)
        n_f = measurement_frame(f.measurement) @ pose.rotation.T @ n_m
        assume(math.hypot(n_f[0], n_f[1]) > 1e-4)
    assert_matches_reference(g)


def test_a_tiny_step_at_the_pole_changes_the_cost_tinily():
    """A floor landmark predicted with rho = |(n_x, n_y)| at 1e-3, where a
    residual in the map's (azimuth, elevation) switched to a pinned
    azimuth: steps of 1e-12 in any variable change the cost by 1e-6 at
    most, instead of jumping by the Huber cost of a ~3 rad residual."""
    g = SGraph()
    add_kf(g, 0, Pose3.identity())
    add_kf(g, 1, Pose3.from_xyz_yaw(0.5, 0.0, 0.0, 0.0))
    between(g, 0, 1, Pose3.from_xyz_yaw(0.5, 0.0, 0.0, 0.0), kind=FactorKind.ODOMETRY,
            robust=False)
    el = math.acos(1e-3)
    for pid, (az, sign) in enumerate(((3.0, 1.0), (-2.0, -1.0))):
        add_plane(g, pid, az, sign * el, 1.5, cls=PlaneClass.HORIZONTAL)
        for kf in (0, 1):
            observe(g, kf, pid, (0.0, sign * math.pi / 2, 1.5))
    bf = BatchedFactors(g)
    v = bf.values(g)
    cost = bf.cost(v, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        step = rng.normal(size=bf.dim)
        moved = bf.cost(bf.retract(v, 1e-12 * step / np.linalg.norm(step)), 1.0)
        assert abs(moved - cost) <= 1e-6

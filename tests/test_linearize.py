"""The batched kernels and normal equations against a second implementation.

`reference_factors` keeps the per-factor kernels that `sgraph.factors`
replaced, written one factor at a time with their own formulas; it is the
reference: the batched residuals and Jacobian blocks must match it per
factor, and the assembled H, g and cost must match a dense J^T J built
from it. The normal equations that a `Linearization` builds on demand must
also equal, byte for byte, those of the eager build that preceded it
(`eager_normal_equations`).
"""

import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sgraph.factors import KINDS, LOCAL_DIM, Factor, FactorKind
from sgraph.geometry import PlaneClass, PlaneMinimal, Pose3, _mv, from_minimal, rot_exp, wrap_angle
from sgraph.graph import Keyframe, PlaneLandmark, SGraph, Span
from sgraph.io import graph_from_dict, graph_to_dict
from sgraph.linearize import LAYERS, BatchedFactors
from sgraph.pipeline import SlamConfig, run_slam
from sgraph.simulator import NoiseSpec
from sgraph.solver import SolverConfig, layer_costs, optimize

from reference_factors import (
    evaluate_factor,
    huber_cost_and_weight,
    measurement_frame,
    plane_retract,
    pose_retract,
)
from test_io import sample_graph
from test_pipeline import run_steps
from test_solver import variable_state

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import _graph_dim  # noqa: E402 - needs perfbench/ on the import path

TOL = 1e-9
PLANE_INFO = np.diag([2500.0, 2500.0, 2500.0])


def add_kf(g, i, pose):
    g.keyframes[i] = Keyframe(id=i, timestamp=float(i), pose=pose, odom_pose=pose,
                              odom_cov=np.eye(6) * 1e-4)


def add_plane(g, pid, az, el, d, cls=PlaneClass.X_VERTICAL):
    g.planes[pid] = PlaneLandmark(id=pid, params=PlaneMinimal(az, el, d), plane_class=cls,
                                  extent=np.ones(2))


def observe(g, kf_id, pid, meas, robust=True, info=PLANE_INFO):
    g.factors.append(Factor(FactorKind.POSE_PLANE, (("kf", kf_id), ("plane", pid)),
                            PlaneMinimal(*meas), info, robust=robust))


def between(g, a, b, meas, kind=FactorKind.LOOP_CLOSURE, robust=True):
    g.factors.append(Factor(kind, (("kf", a), ("kf", b)), meas, np.eye(6) * 37.5,
                            robust=robust))


def first_columns(bf):
    """The first column in H of each variable but the gauge keyframe, whose
    columns come first in the layout and are sliced off H."""
    gauge = LOCAL_DIM["kf"]
    return {
        (kind, vid): int(bf.columns[kind][row, 0]) - gauge
        for kind, ids in bf.ids.items()
        for row, vid in enumerate(ids)
        if (kind, row) != ("kf", 0)
    }


def sqrt_information(f):
    """L^T of the factor's information L L^T."""
    return np.linalg.cholesky(f.information).T


def assert_matches_reference(graph):
    """Every factor's batched residual and Jacobian blocks equal the
    reference's; returns the kinds seen. Azimuth residuals are angles and are
    compared on the circle, where +pi and -pi meet."""
    seen = set()
    bf = BatchedFactors(graph)
    v = bf.values(graph)
    for block in bf.blocks:
        r, J = block.spec.kernel(v, block.rows, block.meas, True)
        # a fresh layout stacks a layer's factors in graph order
        index = [i for i, f in enumerate(graph.factors) if KINDS[f.kind].layer == block.spec.layer]
        assert len(index) == len(block.rows)
        for row, fi in enumerate(index):
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
        L = sqrt_information(f)
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


def eager_normal_equations(bf, v, huber_delta):
    """`(costs, H, g)` at the values `v`, built the way the solve built them
    before g and H were built on demand: each block's kernel, whitening,
    Huber weighting and products in one loop, then both scatters."""
    g_index, h_index, n, gauge = bf._scatter
    costs = dict.fromkeys(LAYERS, 0.0)
    g_parts, h_parts = [np.zeros(0)], [np.zeros(0)]
    for b in bf.blocks:
        r, J = b.spec.kernel(v, b.rows, b.meas, True)
        LT = b.L.transpose(0, 2, 1)
        wr = _mv(LT, r)
        s = np.einsum("ij,ij->i", wr, wr)
        cost = s.copy()
        scale = np.ones_like(s)
        outside = b.robust & (s > huber_delta * huber_delta)
        if outside.any():
            norm = np.sqrt(s[outside])
            cost[outside] = 2.0 * huber_delta * norm - huber_delta * huber_delta
            scale[outside] = np.sqrt(huber_delta / norm)
        costs[b.spec.layer] += float(cost.sum())
        wr = wr * scale[:, None]
        wJ = scale[:, None, None] * (LT @ J)
        wJT = wJ.transpose(0, 2, 1)
        g_parts.append(_mv(wJT, wr).ravel())
        h_parts.append((wJT @ wJ).ravel())
    g = np.bincount(g_index, np.concatenate(g_parts), minlength=n)
    H = np.bincount(h_index, np.concatenate(h_parts), minlength=n * n)
    return costs, H.reshape(n, n)[gauge:, gauge:], g[gauge:]


def assert_same_bytes_as_eager(bf, v, huber_delta):
    """`linearize` at `v` gives the eager build's costs, H and g, byte for
    byte, whichever of H and g is read first."""
    costs, H, g = eager_normal_equations(bf, v, huber_delta)
    for first in ("H", "g"):
        lin = bf.linearize(v, huber_delta)
        getattr(lin, first)
        assert lin.costs == costs
        assert (lin.H.shape, lin.H.tobytes()) == (H.shape, H.tobytes())
        assert (lin.g.shape, lin.g.tobytes()) == (g.shape, g.tobytes())


def assert_normal_equations_match(graph, huber_delta=1.0):
    H_ref, g_ref, cost_ref, layers_ref = dense_reference(graph, huber_delta)
    bf = BatchedFactors(graph)
    v = bf.values(graph)
    lin = bf.linearize(v, huber_delta)
    layers, H, g = lin.costs, lin.H, lin.g
    cost = sum(layers.values())
    assert np.max(np.abs(H - H_ref)) <= 1e-12 * np.max(np.abs(H_ref))
    assert np.max(np.abs(g - g_ref)) <= 1e-12 * max(np.max(np.abs(g_ref)), 1e-300)
    assert cost == pytest.approx(cost_ref, rel=1e-12)
    # built once: a second read gives the same array
    assert lin.H is H and lin.g is g
    # the cost-only pass gives the same costs, per layer and in total, and
    # has no normal equations
    cost_only = bf.linearize(v, huber_delta, jacobians=False)
    assert cost_only.costs == layers and sum(cost_only.costs.values()) == cost
    for name in ("H", "g"):
        with pytest.raises(ValueError, match="without Jacobians"):
            getattr(cost_only, name)
    assert layers == pytest.approx(layers_ref, rel=1e-12, abs=1e-300)
    np.testing.assert_array_equal(H, H.T)
    assert_same_bytes_as_eager(bf, v, huber_delta)


def add_nodes(g):
    """A room on planes 0-3, an x corridor on planes 4 and 5 and a y
    corridor on planes 7 and 6: spans 0 and 1, 2 and 3."""
    x, y = PlaneClass.X_VERTICAL, PlaneClass.Y_VERTICAL
    g.add_node("room", (Span(x, 0.95, 4.1, (0, 1)), Span(y, 0.05, 2.9, (2, 3))), 100.0)
    g.add_node("corridor", (Span(x, 7.0, 2.2, (4, 5)),), 100.0)
    g.add_node("corridor", (Span(y, 2.5, 4.8, (7, 6)),), 100.0)


def tilted(roll, pitch, t=(0.3, -0.4, 1.1)):
    return Pose3(rot_exp(np.array([roll, pitch, 0.0])), np.array(t))


def test_every_factor_kind_is_in_kinds():
    assert set(KINDS) == set(FactorKind)
    # the kinds of one layer are one block: they share kernel and stacking
    for a in FactorKind:
        for b in FactorKind:
            if KINDS[a].layer == KINDS[b].layer:
                assert KINDS[a] is KINDS[b]


def test_perfbench_dimension_and_layers():
    # perfbench counts the columns of the solve by node and reads the cost
    # of each layer by name
    g = SGraph()
    add_kf(g, 0, Pose3.identity())
    add_kf(g, 1, Pose3.from_xyz_yaw(1.0, 0.0, 0.0, 0.1))
    for pid in range(8):
        add_plane(g, pid, 0.0, 0.0, 1.0 + pid)
    add_nodes(g)
    x, y = PlaneClass.X_VERTICAL, PlaneClass.Y_VERTICAL
    g.add_node("room", (Span(x, 1.0, 3.0, (0, 1)), Span(y, 0.0, 3.0, (2, 3))), 100.0)
    g.remove_corridor(0)
    assert (len(g.rooms), len(g.corridors), len(g.spans)) == (2, 1, 5)
    assert _graph_dim(g) == BatchedFactors(g).dim == 6 + 3 * 8 + 2 * 5
    assert set(layer_costs(g)) == {"tracking", "plane", "room", "corridor"}


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
        v = bf.values(g)
        for block in bf.blocks:
            r, _ = block.spec.kernel(v, block.rows, block.meas, False)
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
        add_nodes(g)
        slots = {(f.kind, f.measurement) for f in g.factors}
        assert {s for k, s in slots if k is FactorKind.ROOM_PLANE} == {0, 1, 2, 3}
        assert {s for k, s in slots if k is FactorKind.CORRIDOR_PLANE} == {0, 1, 2, 3}
        assert_matches_reference(g)
        assert_normal_equations_match(g)

    def test_invalid_slot_rejected(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        add_plane(g, 0, 0.0, 0.0, 1.0)
        g.spans[0] = Span(PlaneClass.X_VERTICAL, 0.0, 1.0, (0, 0))
        g.factors.append(Factor(FactorKind.ROOM_PLANE, (("span", 0), ("plane", 0)), 4,
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
            wr = sqrt_information(f) @ evaluate_factor(g, f)[0]
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
        lin = bf.linearize(bf.values(g), 1.0)
        H, grad = lin.H, lin.g
        f = g.factors[0]
        r, jacs = evaluate_factor(g, f)
        L = sqrt_information(f)
        Jb = L @ jacs[("kf", 1)]
        assert H.shape == (6, 6)
        np.testing.assert_allclose(H, Jb.T @ Jb, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad, Jb.T @ (L @ r), rtol=1e-12, atol=1e-12)

    def test_sample_graph_gauge_columns(self):
        g = sample_graph()
        bf = BatchedFactors(g)
        # the gauge keyframe has the first six columns of the layout
        np.testing.assert_array_equal(bf.columns["kf"][0], np.arange(6))
        assert bf.dim == 6 * 2 + 3 * 2 + 2 * 3
        # then keyframes by id, planes and spans, packed
        layout = np.concatenate([cols.ravel() for cols in bf.columns.values()])
        np.testing.assert_array_equal(layout, np.arange(6 + bf.dim))
        for kind, cols in bf.columns.items():
            np.testing.assert_array_equal(cols, cols[:, :1] + np.arange(LOCAL_DIM[kind]))
        # H and g have the columns after the gauge's
        assert first_columns(bf) == {("kf", 1): 0, ("kf", 2): 6, ("plane", 0): 12,
                                     ("plane", 1): 15, ("span", 0): 18, ("span", 1): 20, ("span", 2): 22}
        lin = bf.linearize(bf.values(g), 1.0)
        assert lin.H.shape == (bf.dim, bf.dim) and lin.g.shape == (bf.dim,)

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

    def test_spans_step_additively_on_both_axes(self):
        g = SGraph()
        add_kf(g, 0, Pose3.identity())
        add_nodes(g)
        for pid in range(8):
            add_plane(g, pid, 0.0, 0.0, 1.0 + pid)
        bf, offsets, v = self.solve_setup(g)
        delta = np.random.default_rng(2).normal(0, 0.1, bf.dim)
        bf.write(g, bf.retract(v, delta))
        before = [(0.95, 4.1), (0.05, 2.9), (7.0, 2.2), (2.5, 4.8)]
        assert [g.spans[s].axis.index for s in range(4)] == [0, 1, 0, 1]
        for s, (center, width) in enumerate(before):
            step = delta[offsets[("span", s)] :][:2]
            assert (g.spans[s].center, g.spans[s].width) == (center + step[0], width + step[1])

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

    def cost(values):
        return sum(bf.linearize(values, 1.0, jacobians=False).costs.values())

    before = cost(v)
    rng = np.random.default_rng(3)
    for _ in range(200):
        step = rng.normal(size=bf.dim)
        moved = cost(bf.retract(v, 1e-12 * step / np.linalg.norm(step)))
        assert abs(moved - before) <= 1e-6


# -- the layout a graph keeps between solves ---------------------------------


@pytest.fixture
def stacked(monkeypatch):
    """The number of measurements each `KindSpec.stack` call stacks, in call
    order: the factors a layout absorbs."""
    counts = []

    def counting(stack):
        def wrapped(meas):
            counts.append(len(meas))
            return stack(meas)

        return wrapped

    for kind, spec in KINDS.items():
        monkeypatch.setitem(KINDS, kind, replace(spec, stack=counting(spec.stack)))
    return counts


def assert_same_as_fresh(graph, kept):
    """The kept layout equals a fresh `BatchedFactors` of the graph, byte for
    byte: its blocks, columns, costs, H and g, and those equal the eager
    build's."""
    fresh = BatchedFactors(graph)
    assert kept.ids == fresh.ids and kept.dim == fresh.dim
    for kind, cols in fresh.columns.items():
        np.testing.assert_array_equal(kept.columns[kind], cols)
    for a, b in zip(kept.blocks, fresh.blocks, strict=True):
        assert a.spec == b.spec
        arrays = zip(
            (a.rows, a.L, a.robust, *a.meas),
            (b.rows, b.L, b.robust, *b.meas),
            strict=True,
        )
        for x, y in arrays:
            assert (x.dtype, x.shape, x.strides, x.tobytes()) == (y.dtype, y.shape, y.strides, y.tobytes())
    for jacobians in (True, False):
        lin = kept.linearize(kept.values(graph), 0.5, jacobians)
        lin_fresh = fresh.linearize(fresh.values(graph), 0.5, jacobians)
        assert lin.costs == lin_fresh.costs
        if jacobians:
            assert (lin.H.tobytes(), lin.g.tobytes()) == (lin_fresh.H.tobytes(), lin_fresh.g.tobytes())
    assert_same_bytes_as_eager(kept, kept.values(graph), 0.5)


class TestKeptLayout:
    """`SGraph.solve_layout` keeps one layout per graph: it absorbs the
    factors added since the last call and starts again from empty only
    when the graph no longer holds what it absorbed."""

    @staticmethod
    def solve_layout(graph, stacked):
        """The graph's kept layout, checked against a fresh one, and the
        number of factors it absorbed on the way."""
        stacked.clear()
        kept = graph.solve_layout()
        absorbed = sum(stacked)
        assert_same_as_fresh(graph, kept)
        return kept, absorbed

    def test_matches_a_fresh_layout_after_every_change(self, stacked):
        g = sample_graph()
        kept, absorbed = self.solve_layout(g, stacked)
        assert absorbed == len(g.factors)

        # a keyframe, its odometry and plane observations, a new plane and a
        # corridor with a new span: absorbed, nothing re-stacked
        n = len(g.factors)
        add_kf(g, 3, Pose3(rot_exp(np.array([0.1, -0.2, 0.3])), np.array([1.0, 0.5, 0.2])))
        between(g, 2, 3, Pose3.from_xyz_yaw(0.8, 0.1, 0.0, 0.2), kind=FactorKind.ODOMETRY,
                robust=False)
        add_plane(g, 2, 1.5, 0.02, 2.5, cls=PlaneClass.Y_VERTICAL)
        g._next_plane_id = 3
        observe(g, 3, 0, (0.35, 0.0, 3.5))
        observe(g, 3, 2, (1.45, 0.01, 2.4))
        g.add_node("corridor", (Span(PlaneClass.Y_VERTICAL, 0.5, 4.0, (1, 2)),), 100.0)
        assert self.solve_layout(g, stacked) == (kept, len(g.factors) - n) and n + 5 == len(g.factors)

        # a merge re-points factors and a removal drops them: rebuilt
        g.merge_planes(0, 2)
        assert self.solve_layout(g, stacked) == (kept, len(g.factors))
        g.remove_corridor(0)
        assert self.solve_layout(g, stacked) == (kept, len(g.factors))

        # a new list of the same factors changes nothing; a factor replaced
        # by an equal copy, or the factors reordered, rebuilds
        g.factors = list(g.factors)
        assert self.solve_layout(g, stacked)[1] == 0
        g.factors[2] = replace(g.factors[2])
        assert self.solve_layout(g, stacked)[1] == len(g.factors)
        g.factors = g.factors[::-1]
        assert self.solve_layout(g, stacked)[1] == len(g.factors)
        # the last factor dropped, with every variable kept
        g.factors.pop()
        assert self.solve_layout(g, stacked)[1] == len(g.factors)
        # a plane with an id below the last one's: the rows move
        add_plane(g, 5, 0.2, 0.0, 6.0)
        assert self.solve_layout(g, stacked)[1] == 0
        add_plane(g, 4, 0.1, 0.0, 5.0)
        observe(g, 3, 4, (0.12, 0.0, 4.9))
        assert self.solve_layout(g, stacked)[1] == len(g.factors)
        # a factor re-pointed, as a merge does, with every variable kept
        f = next(f for f in g.factors if f.kind is FactorKind.POSE_PLANE)
        f.variables = (f.variables[0], ("plane", 1 if f.variables[1] == ("plane", 0) else 0))
        assert self.solve_layout(g, stacked)[1] == len(g.factors)

        # `evaluate_factor` stacks its factor in a copy of the graph
        stacked.clear()
        g.evaluate_factor(g.factors[0])
        assert stacked == [1]
        assert self.solve_layout(g, stacked) == (kept, 0)

    def test_a_solve_leaves_the_graph_value_alone(self):
        g = sample_graph()
        optimize(g, SolverConfig(check_rank=False))
        snapshot = graph_to_dict(g)
        assert "_layout" not in snapshot and "_layout" not in repr(g)
        loaded = graph_from_dict(snapshot)
        assert graph_to_dict(loaded) == snapshot
        # a copy starts without the layout, and solving it leaves g's alone
        kept = g.solve_layout()
        copy = replace(g, factors=g.factors[:3])
        assert copy.solve_layout() is not kept
        assert g.solve_layout() is kept
        assert sum(len(b.rows) for b in kept.blocks) == len(g.factors) > 3

    def test_append_only_stream_stacks_each_measurement_once(self, stacked, monkeypatch):
        reshaped = Counter()
        for name in ("merge_planes", "remove_corridor"):
            method = getattr(SGraph, name)

            def counted(self, *args, _method=method, _name=name):
                reshaped[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(SGraph, name, counted)
        _, steps = run_steps(NoiseSpec(trans_drift=0.01, seed=0))
        result = run_slam(steps, SlamConfig())
        graph = result.graph
        assert not reshaped  # the stream only ever adds
        assert len(result.reports) == len(graph.keyframes) > 5
        assert graph.rooms and {f.kind for f in graph.factors} == {
            FactorKind.ODOMETRY, FactorKind.POSE_PLANE, FactorKind.ROOM_PLANE
        }
        # once per factor over the whole run, not once per solve
        assert sum(stacked) == len(graph.factors)

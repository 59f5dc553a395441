"""Loop closure: candidate gating, scan registration, factor insertion."""

import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from sgraph import loops
from sgraph.factors import Factor, FactorKind
from sgraph.geometry import Pose3, inverse_compose, rot_exp, rot_log
from sgraph.graph import Keyframe, SGraph
from sgraph.loops import (
    CORR_DECAY,
    ICP_TOL,
    INFO_SCALE_CAP,
    MAX_CORR_DIST,
    MIN_POINTS,
    LoopConfig,
    LoopConstraint,
    NoConvergence,
    close_loops,
    find_candidates,
    point_normals,
    register_scans,
)
from sgraph.pipeline import run_slam
from sgraph.planes import PointCloud

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402 - needs perfbench/ on the import path


def make_graph(positions):
    g = SGraph()
    for i, p in enumerate(positions):
        pose = Pose3(np.eye(3), np.asarray(p, dtype=float))
        g.keyframes[i] = Keyframe(
            id=i, timestamp=float(i), pose=pose, odom_pose=pose, odom_cov=np.eye(6)
        )
    return g


def box_scan(rng, n=600, half=4.0):
    """Points on the walls of an axis-aligned box, observer at the origin."""
    pts = []
    for axis in range(3):
        for sgn in (-1.0, 1.0):
            m = n // 6
            p = rng.uniform(-half, half, size=(m, 3))
            p[:, axis] = sgn * half
            pts.append(p)
    return PointCloud(np.vstack(pts), timestamp=0.0)


def register(query, match, initial_guess, cfg):
    """register_scans with the query's kd-tree and normals built here."""
    tree = cKDTree(query.points)
    return register_scans(
        query, tree, point_normals(query.points, tree), match, initial_guess, cfg
    )


def reference_register(query, match, initial_guess, cfg):
    """register with the unbounded nearest-neighbour query."""
    if len(query) < MIN_POINTS or len(match) < MIN_POINTS:
        raise NoConvergence("too few points for registration")
    target = query.points
    tree = cKDTree(target)
    normals = point_normals(target, tree)
    pose = initial_guess
    prev_fitness = np.inf
    fitness = np.inf
    corr_dist = max(cfg.coarse_corr_dist, MAX_CORR_DIST)
    for _ in range(cfg.max_icp_iters):
        moved = match.points @ pose.rotation.T + pose.translation
        dists, idx = tree.query(moved, k=1)
        mask = dists <= corr_dist
        if int(mask.sum()) < MIN_POINTS:
            raise NoConvergence("correspondence set collapsed")
        p = moved[mask]
        n = normals[idx[mask]]
        r = np.einsum("ij,ij->i", n, p - target[idx[mask]])
        fitness = float(np.mean(r**2))
        J = np.hstack([np.cross(p, n), n])
        H = J.T @ J
        if np.linalg.matrix_rank(H) < 6:
            raise NoConvergence("correspondences leave the pose underdetermined")
        x = np.linalg.solve(H, -(J.T @ r))
        pose = Pose3(rot_exp(x[:3]), x[3:]).compose(pose)
        at_final_radius = corr_dist <= MAX_CORR_DIST
        if at_final_radius and abs(prev_fitness - fitness) <= ICP_TOL * max(prev_fitness, 1e-12):
            break
        prev_fitness = fitness
        corr_dist = max(MAX_CORR_DIST, corr_dist * CORR_DECAY)
    if fitness > cfg.accept_threshold:
        raise NoConvergence(f"fitness {fitness:.4f} > {cfg.accept_threshold}")
    scale = min(1.0 / max(fitness, 1e-6), INFO_SCALE_CAP)
    return LoopConstraint(relative=pose, fitness=fitness, information=np.eye(6) * scale)


def outcome(registration, *args):
    """A registration's result by bytes, or the text of its NoConvergence."""
    try:
        c = registration(*args)
    except NoConvergence as exc:
        return ("no convergence", str(exc))
    return (
        c.relative.rotation.tobytes(),
        c.relative.translation.tobytes(),
        np.float64(c.fitness).tobytes(),
        c.information.tobytes(),
    )


def grid_with_offsets(offset, n_offset):
    """A 1 m grid on z = 0 as the query, and the same grid plus n_offset
    match points straight above grid points at exactly `offset` metres from
    their nearest query point (every other grid point is farther)."""
    xs, ys = np.meshgrid(np.arange(-5.0, 6.0), np.arange(-5.0, 6.0))
    grid = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
    above = grid[:n_offset] + np.array([0.0, 0.0, offset])
    query = PointCloud(grid, timestamp=0.0)
    match = PointCloud(np.vstack([grid, above]), timestamp=1.0)
    return query, match


def corner_with_offsets(offset, n_offset):
    """Three orthogonal 1 m grids, the floor z = 0 and the walls x = 0 and
    y = 0, over 0..10 m as the query, and the same points plus n_offset
    match points straight above floor points with x, y >= 4 m, at exactly
    `offset` (<= 3 m) from their nearest query point: every other floor
    point is farther, and so is every wall point."""
    ax = np.arange(0.0, 11.0)
    a, b = (m.ravel() for m in np.meshgrid(ax, ax, indexing="ij"))
    floor = np.column_stack([a, b, np.zeros(a.size)])
    up = b > 0
    wall_x = np.column_stack([np.zeros(up.sum()), a[up], b[up]])
    keep = (a > 0) & up
    wall_y = np.column_stack([a[keep], np.zeros(keep.sum()), b[keep]])
    query = PointCloud(np.vstack([floor, wall_x, wall_y]), timestamp=0.0)
    inner = floor[(floor[:, 0] >= 4.0) & (floor[:, 1] >= 4.0)]
    above = inner[:n_offset] + np.array([0.0, 0.0, offset])
    match = PointCloud(np.vstack([query.points, above]), timestamp=1.0)
    return query, match


class TestFindCandidates:
    def test_gating_by_distance_and_gap(self):
        # 20 keyframes along x, last one returns near the start
        positions = [(0.5 * i, 0.0, 0.0) for i in range(20)] + [(0.4, 0.0, 0.0)]
        g = make_graph(positions)
        ids = find_candidates(g, 20, LoopConfig(gate=2.0, min_keyframe_gap=10))
        # only frames within 2m and at least 10 frames away
        assert all(abs(20 - i) >= 10 for i in ids)
        assert all(
            np.linalg.norm(g.keyframes[i].pose.translation - [0.4, 0, 0]) < 2.0
            for i in ids
        )
        assert set(ids) == {0, 1, 2, 3, 4}

    def test_sorted_nearest_first(self):
        positions = [(0.5 * i, 0.0, 0.0) for i in range(20)] + [(0.4, 0.0, 0.0)]
        g = make_graph(positions)
        ids = find_candidates(g, 20, LoopConfig(gate=2.0, min_keyframe_gap=10))
        query = g.keyframes[20].pose.translation
        dists = [float(np.linalg.norm(query - g.keyframes[i].pose.translation)) for i in ids]
        assert dists == sorted(dists)
        assert ids[0] == 1  # x=0.5 is nearest to x=0.4

    def test_prior_relative_is_match_seen_from_query(self, monkeypatch):
        # close_loops hands each registration the match pose seen from the
        # query as its initial guess
        g = make_graph([(0.0, 0.0, 0.0)] + [(1.0 * i, 0, 0) for i in range(1, 15)])
        for kf in g.keyframes.values():
            kf.pose = Pose3(rot_exp(np.array([0.01, -0.02, 0.03 * kf.id])), kf.pose.translation)
            kf.scan = PointCloud(np.zeros((60, 3)), timestamp=kf.timestamp)
        guesses = []

        def spy(query, tree, normals, match, guess, cfg):
            guesses.append(guess)
            return LoopConstraint(relative=guess, fitness=0.0, information=np.eye(6))

        monkeypatch.setattr(loops, "register_scans", spy)
        assert close_loops(g, 12, LoopConfig(gate=100.0, min_keyframe_gap=10)) == 3
        query = g.keyframes[12].pose
        for match_id, guess in zip([2, 1, 0], guesses, strict=True):
            expect = inverse_compose(query, g.keyframes[match_id].pose)
            assert guess.rotation.tobytes() == expect.rotation.tobytes()
            assert guess.translation.tobytes() == expect.translation.tobytes()

    def test_ties_put_the_lower_id_first(self):
        g = make_graph([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)] + [(5.0, 0.0, 0.0)] * 10 + [(0, 0, 0)])
        assert find_candidates(g, 12, LoopConfig(gate=2.0, min_keyframe_gap=10)) == [0, 1]

    def test_gap_excludes_recent(self):
        g = make_graph([(0.0, 0.0, 0.0)] * 8)
        assert find_candidates(g, 7, LoopConfig(gate=1.0, min_keyframe_gap=10)) == []


class TestRegisterScans:
    def test_recovers_known_offset(self):
        rng = np.random.default_rng(3)
        query = box_scan(rng)
        true_rel = Pose3(rot_exp(np.array([0.0, 0.0, 0.12])), np.array([0.4, -0.25, 0.1]))
        # match-frame points: the same world surface seen from the match pose
        inv = true_rel.inverse()
        match = PointCloud(query.points @ inv.rotation.T + inv.translation, timestamp=1.0)
        guess = Pose3(np.eye(3), np.zeros(3))
        args = (query, match, guess, LoopConfig())
        out = register(*args)
        assert np.max(np.abs(out.relative.translation - true_rel.translation)) < 5e-3
        assert np.max(np.abs(out.relative.rotation - true_rel.rotation)) < 5e-3
        assert out.fitness < 1e-4
        assert outcome(register, *args) == outcome(reference_register, *args)

    def test_coarse_initialization_converges(self):
        # initial guess off by well over the final correspondence radius
        rng = np.random.default_rng(4)
        query = box_scan(rng, n=1200)
        match = PointCloud(query.points.copy(), timestamp=1.0)
        guess = Pose3(rot_exp(np.array([0, 0, 0.1])), np.array([1.6, -1.2, 0.0]))
        args = (query, match, guess, LoopConfig())
        out = register(*args)
        assert np.max(np.abs(out.relative.translation)) < 2e-2
        assert np.max(np.abs(out.relative.rotation - np.eye(3))) < 2e-2
        assert outcome(register, *args) == outcome(reference_register, *args)

    def test_too_few_points(self):
        cloud = PointCloud(np.zeros((10, 3)), timestamp=0.0)
        with pytest.raises(NoConvergence):
            register(cloud, cloud, Pose3(np.eye(3), np.zeros(3)), LoopConfig())

    def test_unrelated_scans_rejected(self):
        rng = np.random.default_rng(5)
        a = PointCloud(rng.uniform(-5, 5, size=(400, 3)), timestamp=0.0)
        b = PointCloud(rng.uniform(-5, 5, size=(400, 3)), timestamp=1.0)
        args = (a, b, Pose3(np.eye(3), np.zeros(3)), LoopConfig())
        with pytest.raises(NoConvergence, match="fitness"):
            register(*args)
        assert outcome(register, *args) == outcome(reference_register, *args)

    def test_collapsed_correspondences_rejected(self):
        rng = np.random.default_rng(5)
        a = PointCloud(rng.uniform(-5, 5, size=(400, 3)), timestamp=0.0)
        far = PointCloud(a.points + np.array([20.0, 0.0, 0.0]), timestamp=1.0)
        args = (a, far, Pose3(np.eye(3), np.zeros(3)), LoopConfig())
        with pytest.raises(NoConvergence, match="collapsed"):
            register(*args)
        assert outcome(register, *args) == outcome(reference_register, *args)

    @pytest.mark.parametrize(
        "offset, cfg",
        [
            # the coarse radius, on the first iteration
            (3.0, LoopConfig(max_icp_iters=1, accept_threshold=10.0)),
            # the final radius, on the first iteration
            (1.0, LoopConfig(coarse_corr_dist=1.0, max_icp_iters=1, accept_threshold=10.0)),
            (3.0, LoopConfig(accept_threshold=10.0)),
            (1.0, LoopConfig(coarse_corr_dist=1.0, accept_threshold=10.0)),
        ],
    )
    def test_pairs_at_exactly_the_radius_are_kept(self, offset, cfg):
        query, match = corner_with_offsets(offset, n_offset=40)
        args = (query, match, Pose3(np.eye(3), np.zeros(3)), cfg)
        got = outcome(register, *args)
        assert got == outcome(reference_register, *args)
        if cfg.max_icp_iters == 1:
            # the 40 points at the radius count, each at r along its floor
            # normal: fitness is 40 r^2 / 371
            assert np.frombuffer(got[2])[0] == pytest.approx(40 * offset**2 / 371, rel=1e-12)

    def test_single_plane_is_underdetermined(self):
        # a match slid along one plane fits it as well as the true pose, so
        # the registration must fail rather than return a slid pose
        query, match = grid_with_offsets(0.5, n_offset=40)
        args = (query, match, Pose3(np.eye(3), np.array([0.3, -0.2, 0.0])),
                LoopConfig(accept_threshold=10.0))
        with pytest.raises(NoConvergence, match="underdetermined"):
            register(*args)
        assert outcome(register, *args) == outcome(reference_register, *args)

    def test_information_scales_with_fitness(self):
        rng = np.random.default_rng(6)
        query = box_scan(rng)
        match = PointCloud(query.points.copy(), timestamp=1.0)
        out = register(query, match, Pose3(np.eye(3), np.zeros(3)), LoopConfig())
        expect = min(1.0 / max(out.fitness, 1e-6), INFO_SCALE_CAP)
        assert np.allclose(out.information, np.eye(6) * expect)


class TestAddLoopFactor:
    """The factor close_loops appends for an accepted registration."""

    def test_appends_robust_factor(self, monkeypatch):
        g = make_graph([(0, 0, 0)] * 10 + [(1, 0, 0)])
        for kf in g.keyframes.values():
            kf.scan = PointCloud(np.zeros((60, 3)), timestamp=kf.timestamp)
        constraint = LoopConstraint(
            relative=Pose3(np.eye(3), np.array([1.0, 0.0, 0.0])),
            fitness=0.01,
            information=np.eye(6) * 100.0,
        )
        monkeypatch.setattr(loops, "register_scans", lambda *args: constraint)
        assert close_loops(g, 10, LoopConfig()) == 1
        assert len(g.factors) == 1
        f = g.factors[0]
        assert f.kind is FactorKind.LOOP_CLOSURE
        assert f.variables == (("kf", 10), ("kf", 0))
        assert f.robust
        assert f.measurement is constraint.relative
        assert f.information is constraint.information


class TestCloseLoops:
    def test_skips_keyframes_without_scans(self):
        g = make_graph([(0.0, 0.0, 0.0)] * 15)
        assert close_loops(g, 14, LoopConfig()) == 0

    def test_inserts_consistent_constraint(self):
        rng = np.random.default_rng(7)
        scan = box_scan(rng)
        g = make_graph([(0.0, 0.0, 0.0)] * 15)
        for kf in g.keyframes.values():
            kf.scan = None
        g.keyframes[0].scan = scan
        g.keyframes[14].scan = PointCloud(scan.points.copy(), timestamp=14.0)
        n = close_loops(g, 14, LoopConfig(gate=1.0))
        assert n == len(g.factors) == 1
        f = g.factors[0]
        assert f.kind is FactorKind.LOOP_CLOSURE
        assert f.variables == (("kf", 14), ("kf", 0))
        assert f.robust
        # identical scans at identical poses: relative pose is identity
        assert np.max(np.abs(f.measurement.translation)) < 1e-6
        assert np.max(np.abs(f.measurement.rotation - np.eye(3))) < 1e-6

    def loop_graph(self):
        """Query keyframe 14 with five candidates, nearest first: 0 has too
        few points, 1 converges, 2 is an unrelated scan, 3 converges beyond
        2's failure, 4 has no scan."""
        rng = np.random.default_rng(8)
        scan = box_scan(rng)
        g = make_graph([(0.0, 0.0, 0.0)] * 15)
        for kf in g.keyframes.values():
            kf.scan = None
        offsets = {0: 0.05, 1: 0.1, 2: 0.15, 3: 0.2, 4: 0.25}
        for i, dx in offsets.items():
            kf = g.keyframes[i]
            kf.pose = Pose3(rot_exp(np.array([0.0, 0.0, 0.02 * i])), np.array([dx, -dx, 0.0]))
            # the box seen from this keyframe's pose, the query at the origin
            inv = kf.pose.inverse()
            kf.scan = PointCloud(scan.points @ inv.rotation.T + inv.translation, timestamp=i)
        g.keyframes[0].scan = PointCloud(scan.points[:20], timestamp=0.0)
        g.keyframes[2].scan = PointCloud(rng.uniform(-4, 4, size=(600, 3)), timestamp=2.0)
        g.keyframes[4].scan = None
        g.keyframes[14].scan = scan
        return g

    def serial_reference(self, graph, query_id, cfg):
        """Register the candidates with a usable scan one after another,
        nearest first, each against its own build of the query's kd-tree
        and normals, and insert each until the first one that fails."""
        query = graph.keyframes[query_id]
        accepted = 0
        for match_id in find_candidates(graph, query_id, cfg):
            match = graph.keyframes[match_id]
            if match.scan is None or len(match.scan) < MIN_POINTS:
                continue
            guess = inverse_compose(query.pose, match.pose)
            try:
                c = register(query.scan, match.scan, guess, cfg)
            except NoConvergence:
                break
            graph.factors.append(
                Factor(
                    kind=FactorKind.LOOP_CLOSURE,
                    variables=(("kf", query_id), ("kf", match_id)),
                    measurement=c.relative,
                    information=c.information,
                    robust=True,
                )
            )
            accepted += 1
        return accepted

    @staticmethod
    def factor_bytes(graph):
        return [
            (
                f.kind,
                f.variables,
                f.robust,
                f.measurement.rotation.tobytes(),
                f.measurement.translation.tobytes(),
                f.information.tobytes(),
            )
            for f in graph.factors
        ]

    def run_graph(self):
        """loop_graph with 2 converging too, so the run is 1, 2, 3 and the
        unrelated scan moves to 4, the last candidate."""
        g = self.loop_graph()
        inv = g.keyframes[2].pose.inverse()
        g.keyframes[2].scan = PointCloud(
            g.keyframes[14].scan.points @ inv.rotation.T + inv.translation, timestamp=2.0
        )
        rng = np.random.default_rng(9)
        g.keyframes[4].scan = PointCloud(rng.uniform(-4, 4, size=(600, 3)), timestamp=4.0)
        return g

    def test_equals_serial_reference(self):
        cfg = LoopConfig(gate=1.0)
        g = self.loop_graph()
        assert find_candidates(g, 14, cfg) == [0, 1, 2, 3, 4]
        ref = self.loop_graph()
        assert close_loops(g, 14, cfg) == self.serial_reference(ref, 14, cfg) == 1
        # 3 converges but lies beyond 2's failure; 0 is too small to register
        assert [f.variables for f in g.factors] == [(("kf", 14), ("kf", 1))]
        assert self.factor_bytes(g) == self.factor_bytes(ref)

    def test_other_errors_propagate_and_insert_nothing(self, monkeypatch):
        # candidate 1 has converged when candidate 2 raises
        g = self.run_graph()
        bad = g.keyframes[2].scan
        real = loops.register_scans
        converged = []

        def failing(query, tree, normals, match, guess, cfg):
            if match is bad:
                raise ValueError("boom")
            out = real(query, tree, normals, match, guess, cfg)
            converged.append(match)
            return out

        monkeypatch.setattr(loops, "register_scans", failing)
        with pytest.raises(ValueError, match="boom"):
            close_loops(g, 14, LoopConfig(gate=1.0))
        assert converged == [g.keyframes[1].scan]
        assert g.factors == []

    def test_first_failure_stops_farther_registrations(self, monkeypatch):
        g = self.loop_graph()
        real = loops.register_scans
        registered = []

        def spy(query, tree, normals, match, guess, cfg):
            registered.append(match)
            return real(query, tree, normals, match, guess, cfg)

        monkeypatch.setattr(loops, "register_scans", spy)
        assert close_loops(g, 14, LoopConfig(gate=1.0)) == 1
        # 2 fails, so 3, which would converge, is never registered
        assert registered == [g.keyframes[1].scan, g.keyframes[2].scan]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_same_factors_on_any_worker_count(self, monkeypatch, workers):
        # the host's CPU count must not reach the result
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        cfg = LoopConfig(gate=1.0)
        ref = self.run_graph()
        assert self.serial_reference(ref, 14, cfg) == 3
        g = self.run_graph()
        assert close_loops(g, 14, cfg) == 3
        assert [f.variables for f in g.factors] == [
            (("kf", 14), ("kf", 1)),
            (("kf", 14), ("kf", 2)),
            (("kf", 14), ("kf", 3)),
        ]
        assert self.factor_bytes(g) == self.factor_bytes(ref)

    def test_too_small_candidate_does_not_end_the_search(self, monkeypatch):
        cfg = LoopConfig(gate=1.0)
        g = self.loop_graph()
        assert len(g.keyframes[0].scan) < MIN_POINTS
        registered = []
        real = loops.register_scans

        def spy(query, tree, normals, match, guess, cfg):
            registered.append(match)
            return real(query, tree, normals, match, guess, cfg)

        monkeypatch.setattr(loops, "register_scans", spy)
        assert close_loops(g, 14, cfg) == 1
        assert [f.variables for f in g.factors] == [(("kf", 14), ("kf", 1))]
        # the too-small scan never reaches the registration
        assert all(m is not g.keyframes[0].scan for m in registered)
        assert registered[0] is g.keyframes[1].scan

    def test_query_target_is_built_once_and_only_when_needed(self, monkeypatch):
        builds = Counter()
        real_tree, real_normals = loops.cKDTree, loops.point_normals

        def tree(points):
            builds["kd-trees"] += 1
            return real_tree(points)

        def normals(points, kd_tree):
            builds["normal sets"] += 1
            return real_normals(points, kd_tree)

        monkeypatch.setattr(loops, "cKDTree", tree)
        monkeypatch.setattr(loops, "point_normals", normals)
        cfg = LoopConfig(gate=1.0)
        # five candidates, none registrable: 0 has too few points, the
        # others no scan
        g = self.loop_graph()
        for i in (1, 2, 3):
            g.keyframes[i].scan = None
        assert close_loops(g, 14, cfg) == 0
        assert builds == Counter()
        # registrable candidates, but a query with too few points
        g = self.run_graph()
        g.keyframes[14].scan = PointCloud(g.keyframes[14].scan.points[:20], timestamp=14.0)
        assert close_loops(g, 14, cfg) == 0
        assert builds == Counter()
        # three registrable candidates, each accepted
        g = self.run_graph()
        g.keyframes[4].scan = None
        assert close_loops(g, 14, cfg) == 3
        assert builds == Counter({"kd-trees": 1, "normal sets": 1})


def test_square_loop_factors_match_ground_truth():
    # the benchmark's square-loop workload on noise seed 0: every accepted
    # loop must measure its keyframes' true relative pose
    wl = WORKLOADS["square-loop"]
    steps = wl.make_stream(wl.make_world(), 0)
    result = run_slam(steps, wl.cfg)
    gt = {s.timestamp: s.gt_pose for s in steps}
    kfs = result.graph.keyframes
    factors = [f for f in result.graph.factors if f.kind is FactorKind.LOOP_CLOSURE]
    assert factors
    for f in factors:
        (_, q), (_, m) = f.variables
        err = inverse_compose(inverse_compose(gt[kfs[q].timestamp], gt[kfs[m].timestamp]), f.measurement)
        assert np.linalg.norm(err.translation) < 0.05, f.variables
        assert np.linalg.norm(rot_log(err.rotation)) < 0.01, f.variables

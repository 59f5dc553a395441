"""Loop closure: candidate gating, scan registration, factor insertion."""

import numpy as np
import pytest

from sgraph.factors import FactorKind
from sgraph.geometry import Pose3, rot_exp
from sgraph.graph import Keyframe, SGraph
from sgraph.loops import (
    LoopConfig,
    LoopConstraint,
    NoConvergence,
    add_loop_factor,
    close_loops,
    find_candidates,
    register_scans,
)
from sgraph.planes import PointCloud


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


class TestFindCandidates:
    def test_gating_by_distance_and_gap(self):
        # 20 keyframes along x, last one returns near the start
        positions = [(0.5 * i, 0.0, 0.0) for i in range(20)] + [(0.4, 0.0, 0.0)]
        g = make_graph(positions)
        cands = find_candidates(g, 20, LoopConfig(gate=2.0, min_keyframe_gap=10))
        ids = [c.match_id for c in cands]
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
        cands = find_candidates(g, 20, LoopConfig(gate=2.0, min_keyframe_gap=10))
        dists = [c.distance for c in cands]
        assert dists == sorted(dists)
        assert cands[0].match_id == 1  # x=0.5 is nearest to x=0.4

    def test_prior_relative_is_match_seen_from_query(self):
        g = make_graph([(0.0, 0.0, 0.0)] + [(1.0 * i, 0, 0) for i in range(1, 15)])
        cand = find_candidates(g, 12, LoopConfig(gate=100.0, min_keyframe_gap=10))[0]
        rel = cand.prior_relative
        expect = g.keyframes[12].pose.inverse().compose(g.keyframes[cand.match_id].pose)
        assert np.allclose(rel.translation, expect.translation, atol=1e-12)

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
        out = register_scans(query, match, guess, LoopConfig())
        assert np.max(np.abs(out.relative.translation - true_rel.translation)) < 5e-3
        assert np.max(np.abs(out.relative.rotation - true_rel.rotation)) < 5e-3
        assert out.fitness < 1e-4

    def test_coarse_initialization_converges(self):
        # initial guess off by well over the final correspondence radius
        rng = np.random.default_rng(4)
        query = box_scan(rng, n=1200)
        match = PointCloud(query.points.copy(), timestamp=1.0)
        guess = Pose3(rot_exp(np.array([0, 0, 0.1])), np.array([1.6, -1.2, 0.0]))
        out = register_scans(query, match, guess, LoopConfig())
        assert np.max(np.abs(out.relative.translation)) < 2e-2
        assert np.max(np.abs(out.relative.rotation - np.eye(3))) < 2e-2

    def test_too_few_points(self):
        cloud = PointCloud(np.zeros((10, 3)), timestamp=0.0)
        with pytest.raises(NoConvergence):
            register_scans(cloud, cloud, Pose3(np.eye(3), np.zeros(3)), LoopConfig())

    def test_unrelated_scans_rejected(self):
        rng = np.random.default_rng(5)
        a = PointCloud(rng.uniform(-5, 5, size=(400, 3)), timestamp=0.0)
        b = PointCloud(rng.uniform(-5, 5, size=(400, 3)), timestamp=1.0)
        with pytest.raises(NoConvergence):
            register_scans(a, b, Pose3(np.eye(3), np.zeros(3)), LoopConfig())

    def test_information_scales_with_fitness(self):
        rng = np.random.default_rng(6)
        query = box_scan(rng)
        match = PointCloud(query.points.copy(), timestamp=1.0)
        out = register_scans(query, match, Pose3(np.eye(3), np.zeros(3)), LoopConfig())
        cfg = LoopConfig()
        expect = min(1.0 / max(out.fitness, 1e-6), cfg.info_scale_cap)
        assert np.allclose(out.information, np.eye(6) * expect)


class TestAddLoopFactor:
    def constraint(self, q, m):
        return LoopConstraint(
            query_id=q,
            match_id=m,
            relative=Pose3(np.eye(3), np.array([1.0, 0.0, 0.0])),
            fitness=0.01,
            information=np.eye(6) * 100.0,
        )

    def test_appends_robust_factor(self):
        g = make_graph([(0, 0, 0), (1, 0, 0)])
        add_loop_factor(g, self.constraint(1, 0))
        assert len(g.factors) == 1
        f = g.factors[0]
        assert f.kind is FactorKind.LOOP_CLOSURE
        assert f.variables == (("kf", 1), ("kf", 0))
        assert f.robust

    def test_duplicate_pair_rejected(self):
        g = make_graph([(0, 0, 0), (1, 0, 0)])
        add_loop_factor(g, self.constraint(1, 0))
        add_loop_factor(g, self.constraint(1, 0))
        assert len(g.factors) == 1

    def test_different_pairs_kept(self):
        g = make_graph([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        add_loop_factor(g, self.constraint(1, 0))
        add_loop_factor(g, self.constraint(2, 0))
        assert len(g.factors) == 2


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
        assert n == 1
        f = g.factors[-1]
        assert f.kind is FactorKind.LOOP_CLOSURE
        # identical scans at identical poses: relative pose is identity
        assert np.max(np.abs(f.measurement.translation)) < 1e-6
        assert np.max(np.abs(f.measurement.rotation - np.eye(3))) < 1e-6

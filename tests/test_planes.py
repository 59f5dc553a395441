"""Pre-filtering, sequential RANSAC plane recovery and extent computation."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sgraph import planes
from sgraph.planes import (
    EmptyCloud,
    FilterConfig,
    PointCloud,
    RansacConfig,
    TooFewPoints,
    extract_planes,
    plane_extent,
    preprocess,
    voxel_downsample,
)
from sgraph import pipeline
from sgraph.factors import FactorKind
from sgraph.geometry import PlaneClass, PlaneHessian, PlaneMinimal, Pose3
from sgraph.graph import PlaneLandmark, SGraph
from sgraph.pipeline import SlamConfig, SlamResult, process_step, run_slam
from sgraph.simulator import (
    NoiseSpec,
    ScanPattern,
    SimStep,
    TrajectorySpec,
    default_multi_room_layout,
    generate_world,
    perimeter_waypoints,
    simulate_run,
)


def box_cloud(rng=None, sigma=0.0, n_per_face=400, half=2.0):
    """Six planted faces of an axis-aligned box, optionally noisy.

    Returns the cloud and the planted (normal, d) list with d >= 0 and the
    normal pointing toward the origin (the sensor convention).
    """
    if rng is None:
        rng = np.random.default_rng(1234)
    faces = []
    planted = []
    for axis in range(3):
        for s in (-1.0, 1.0):
            pts = rng.uniform(-half, half, size=(n_per_face, 3))
            pts[:, axis] = s * half
            if sigma > 0.0:
                n = np.zeros(3)
                n[axis] = 1.0
                pts += np.outer(rng.normal(0.0, sigma, n_per_face), n)
            faces.append(pts)
            normal = np.zeros(3)
            normal[axis] = -s  # toward the origin
            planted.append((normal, half))
    return PointCloud(np.vstack(faces), timestamp=1.0), planted


def match_detections(dets, planted):
    """Best planted plane per detection: (angle error rad, distance error m)."""
    out = []
    for det in dets:
        best = (math.inf, math.inf)
        for normal, d in planted:
            cosang = float(np.clip(det.plane.normal @ normal, -1.0, 1.0))
            ang = math.acos(abs(cosang))
            derr = abs(det.plane.distance - d)
            if (ang, derr) < best:
                best = (ang, derr)
        out.append(best)
    return out


class TestPreprocess:
    def test_identical_ranges_all_kept(self):
        # zero range variance: the k-sigma band is degenerate but inclusive
        ang = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
        pts = np.stack([5 * np.cos(ang), 5 * np.sin(ang), np.zeros_like(ang)], axis=1)
        out = preprocess(PointCloud(pts), FilterConfig(voxel_size=0.01, k_sigma=2.0))
        assert len(out) == 1000

    def test_far_outlier_removed(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(0, 0.2, size=(500, 3)) + np.array([5.0, 0.0, 0.0])
        pts = np.vstack([pts, [[100.0, 0.0, 0.0]]])
        out = preprocess(PointCloud(pts), FilterConfig(voxel_size=0.01, k_sigma=2.0))
        assert np.max(np.linalg.norm(out.points, axis=1)) < 50.0

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyCloud):
            preprocess(PointCloud(np.empty((0, 3))), FilterConfig())

    @staticmethod
    def planar_cloud():
        rng = np.random.default_rng(11)
        return np.column_stack([rng.uniform(-3, 3, size=(500, 2)), np.full(500, 1.5)])

    @pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [0.0, np.nan, np.nan], [np.inf, 0.0, 0.0], [0.0, 0.0, -np.inf]])
    def test_non_finite_return_is_dropped(self, bad):
        pts = self.planar_cloud()
        want = preprocess(PointCloud(np.delete(pts, 7, axis=0), 3.0), FilterConfig())
        pts[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no invalid-value cast in the voxel filter
            got = preprocess(PointCloud(pts, 3.0), FilterConfig())
        assert got.points.tobytes() == want.points.tobytes()
        assert got.timestamp == 3.0

    @pytest.mark.parametrize("voxel_size", [0.0, -0.1, np.nan, np.inf])
    def test_voxel_size_not_finite_and_positive_raises(self, voxel_size):
        # the pipeline passes on EmptyCloud, so the error must not be one
        with pytest.raises(ValueError, match="FilterConfig.voxel_size") as err:
            preprocess(PointCloud(self.planar_cloud()), FilterConfig(voxel_size=voxel_size))
        assert not isinstance(err.value, EmptyCloud)

    @pytest.mark.parametrize("k_sigma", [np.nan, -1.0, 0.0])
    def test_k_sigma_not_finite_and_positive_raises(self, k_sigma):
        # such a band keeps no point of any scan
        with pytest.raises(ValueError, match="FilterConfig.k_sigma") as err:
            preprocess(PointCloud(self.planar_cloud()), FilterConfig(k_sigma=k_sigma))
        assert not isinstance(err.value, EmptyCloud)

    def test_all_non_finite_raises(self):
        pts = np.full((50, 3), np.nan)
        pts[::2] = [np.inf, 0.0, 1.0]
        with pytest.raises(EmptyCloud):
            preprocess(PointCloud(pts), FilterConfig())

    def test_voxel_downsample_merges_cells(self):
        pts = np.array([[0.01, 0.01, 0.01], [0.02, 0.02, 0.02], [1.0, 1.0, 1.0]])
        out = voxel_downsample(pts, 0.1)
        assert out.shape[0] == 2

    def test_voxel_downsample_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, size=(2000, 3))
        a = voxel_downsample(pts, 0.25)
        b = voxel_downsample(pts, 0.25)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("where", [0, 250, 500])
    def test_an_added_non_finite_row_changes_no_byte(self, where):
        pts = self.planar_cloud()
        want = preprocess(PointCloud(pts, 2.0), FilterConfig())
        for bad in ([np.nan, 1.0, 1.0], [1.0, -np.inf, 1.0]):
            got = preprocess(PointCloud(np.insert(pts, where, bad, axis=0), 2.0), FilterConfig())
            assert got.points.tobytes() == want.points.tobytes()


def reference_voxel_downsample(points, voxel_size):
    """One centroid per voxel, voxels in `np.lexsort` order of their
    integer indices: the filter without the packed code."""
    keys = np.floor(points / voxel_size).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    keys_sorted = keys[order]
    starts = np.concatenate([[0], np.flatnonzero(np.any(np.diff(keys_sorted, axis=0) != 0, axis=1)) + 1])
    counts = np.diff(np.append(starts, len(points)))[:, None]
    return np.add.reduceat(points[order], starts, axis=0) / counts


def voxel_clouds():
    """Seeded clouds with duplicate points, negative coordinates and points
    on voxel faces, one point and one voxel: (points, voxel size)."""
    rng = np.random.default_rng(23)
    spread = rng.uniform(-4.0, 3.0, size=(3000, 3))
    duplicated = np.repeat(rng.uniform(-1.0, 1.0, size=(300, 3)), 3, axis=0)[rng.permutation(900)]
    faces = rng.integers(-30, 30, size=(1000, 3)) * 0.25
    faces[::2] += rng.uniform(0.0, 0.25, size=(500, 3)) * (rng.random((500, 3)) < 0.5)
    negative = -rng.exponential(2.0, size=(1500, 3))
    one_voxel = rng.uniform(0.3, 0.35, size=(40, 3))
    return [
        (spread, 0.1),
        (spread, 0.7),
        (duplicated, 0.05),
        (faces, 0.25),
        (negative, 0.1),
        (np.array([[-1.25, 0.0, 3.5]]), 0.25),
        (one_voxel, 0.1),
        (np.vstack([spread, duplicated, faces, negative]), 0.1),
    ]


class TestVoxelDownsample:
    @pytest.mark.parametrize("case", range(len(voxel_clouds())))
    def test_equals_the_lexsort_filter_byte_for_byte(self, case):
        points, voxel_size = voxel_clouds()[case]
        got = voxel_downsample(points, voxel_size)
        want = reference_voxel_downsample(points, voxel_size)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_one_voxel_and_one_point(self):
        points, voxel_size = voxel_clouds()[-2]
        assert voxel_downsample(points, voxel_size).shape == (1, 3)
        point = np.array([[-1.25, 0.0, 3.5]])
        assert voxel_downsample(point, 0.25).tobytes() == point.tobytes()

    def test_a_grid_beyond_int64_raises(self):
        # 1e7 voxels a side: each index fits, the 1e21 cells of the grid do not
        points = np.array([[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]])
        with pytest.raises(ValueError, match="10000001 x 10000001 x 10000001"):
            voxel_downsample(points, 1.0)
        # a grid of 2^62 cells still fits
        assert voxel_downsample(np.array([[0.0, 0.0, 0.0], [2.0**62 - 1, 0.0, 0.0]]), 1.0).shape == (2, 3)

    @pytest.mark.parametrize("coordinate", [2.0**63, -(2.0**63) - 2.0**11, 1e300, np.inf, np.nan])
    def test_an_index_beyond_int64_raises(self, coordinate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no invalid-value cast on the way
            with pytest.raises(ValueError, match="exceed int64"):
                voxel_downsample(np.array([[0.0, 0.0, 0.0], [1.0, coordinate, 2.0]]), 1.0)

    def test_the_lowest_int64_index_is_kept(self):
        point = np.array([[-(2.0**63), 0.0, 0.0]])
        assert voxel_downsample(point, 1.0).tobytes() == point.tobytes()


class TestExtractPlanesNoiseless:
    @pytest.mark.parametrize("threshold", [np.nan, -0.03, 0.0])
    def test_threshold_not_finite_and_positive_raises(self, threshold):
        # such a band finds no plane, even on a box the default finds whole;
        # the pipeline passes on TooFewPoints, so the error must not be one
        cloud, _ = box_cloud(sigma=0.0)
        with pytest.raises(ValueError, match="RansacConfig.threshold") as err:
            extract_planes(cloud, RansacConfig(threshold=threshold))
        assert not isinstance(err.value, TooFewPoints)

    def test_box_recovered_exactly(self):
        cloud, planted = box_cloud(sigma=0.0)
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300, seed=0)
        dets = extract_planes(cloud, cfg)
        assert len(dets) == 6
        errs = match_detections(dets, planted)
        for ang, derr in errs:
            assert ang < 1e-6
            assert derr < 1e-9

    def test_normals_point_toward_sensor(self):
        cloud, _ = box_cloud(sigma=0.0)
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300, seed=0)
        for det in extract_planes(cloud, cfg):
            assert det.plane.distance >= 0.0
            # signed distance of the origin is -d < 0 by convention
            assert det.plane.normal @ np.zeros(3) - det.plane.distance < 0.0

    def test_too_few_points_raises(self):
        with pytest.raises(TooFewPoints):
            extract_planes(
                PointCloud(np.zeros((10, 3))), RansacConfig(min_inliers=100)
            )


class TestExtractPlanesNoisy:
    def test_planted_recovery_sigma_001(self):
        cloud, planted = box_cloud(sigma=0.01)
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300, seed=0)
        dets = extract_planes(cloud, cfg)
        assert len(dets) == 6
        for ang, derr in match_detections(dets, planted):
            assert math.degrees(ang) < 1.0
            assert derr < 0.01

    def test_inlier_sets_disjoint(self):
        cloud, _ = box_cloud(sigma=0.01)
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300, seed=0)
        dets = extract_planes(cloud, cfg)
        seen = set()
        for det in dets:
            idx = set(det.inlier_indices.tolist())
            assert not (idx & seen)
            seen |= idx

    def test_inliers_within_threshold(self):
        cloud, _ = box_cloud(sigma=0.01)
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300, seed=0)
        for det in extract_planes(cloud, cfg):
            pts = cloud.points[det.inlier_indices]
            dist = np.abs(pts @ det.plane.normal - det.plane.distance)
            assert float(dist.max()) <= cfg.threshold + 1e-12
            assert float(np.sqrt(np.mean(dist**2))) <= cfg.threshold

    def test_deterministic_under_fixed_seed(self):
        cloud, _ = box_cloud(sigma=0.01)
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300, seed=7)
        a = extract_planes(cloud, cfg)
        b = extract_planes(cloud, cfg)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert np.array_equal(da.plane.normal, db.plane.normal)
            assert da.plane.distance == db.plane.distance
            assert np.array_equal(da.inlier_indices, db.inlier_indices)

    def test_random_cloud_yields_no_confident_planes(self):
        rng = np.random.default_rng(99)
        cloud = PointCloud(rng.uniform(-5, 5, size=(200, 3)))
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300, seed=0)
        dets = extract_planes(cloud, cfg)
        assert len(dets) == 0


def reference_round(rng, points, cfg):
    """`_ransac_round` one hypothesis at a time: the same `_draw_triples`
    batches (`min(_CHUNK, needed - it)` triples each), each triple scored
    alone with the scalar code, and only indices below the adaptive stop
    considered.

    Returns (best mask, best count, hypotheses drawn, hypotheses considered,
    degenerate samples, the largest count drawn past the stop).
    """
    n_pts = points.shape[0]
    best_mask = None
    best_count = 0
    needed = cfg.max_iters
    it = considered = degenerate = past_stop = 0
    while it < needed:
        size = min(planes._CHUNK, needed - it)
        for j, sample in enumerate(planes._draw_triples(rng, n_pts, size)):
            p0, p1, p2 = points[sample]
            normal = planes._cross3(p1 - p0, p2 - p0)
            nn = np.linalg.norm(normal)
            if it + j < needed:
                considered += 1
                degenerate += nn < 1e-12
            if nn < 1e-12:
                continue
            normal = normal / nn
            d = normal @ p0
            mask = np.abs(points @ normal - d) <= cfg.threshold
            count = int(mask.sum())
            if it + j >= needed:
                past_stop = max(past_stop, count)
            elif count > best_count:
                best_count = count
                best_mask = mask
                w = count / n_pts
                if w >= 1.0 - 1e-12:
                    needed = it + j + 1
                else:
                    needed = min(
                        cfg.max_iters,
                        int(math.ceil(math.log(1e-3) / math.log(1.0 - w**3))),
                    )
        it += size
    return best_mask, best_count, it, considered, degenerate, past_stop


def reference_trim_fit(points, mask, cfg, allowed):
    """`_trim_fit` as it was on the whole cloud, restricted by an `allowed` mask."""
    for _ in range(25):
        normal, d = planes._fit_plane_lsq(points[mask])
        signed = points @ normal - d
        r_in = signed[mask]
        med = float(np.median(r_in))
        mad = float(np.median(np.abs(r_in - med)))
        band = min(max(3.0 * 1.4826 * mad, 1e-9), cfg.threshold)
        cand = (np.abs(signed - med) <= band) & allowed
        new_mask = planes._dominant_patch(points, cand, normal)
        if int(new_mask.sum()) < cfg.min_inliers or np.array_equal(new_mask, mask):
            break
        mask = new_mask
    normal, d = planes._fit_plane_lsq(points[mask])
    return mask, normal, d


def reference_plane_basis(normal):
    """`_plane_basis` with `np.linalg.norm`."""
    axis = np.array([1.0, 0.0, 0.0])
    u = axis - (axis @ normal) * normal
    if np.linalg.norm(u) < 1e-6:
        axis = np.array([0.0, 1.0, 0.0])
        u = axis - (axis @ normal) * normal
    u = u / np.linalg.norm(u)
    return u, planes._cross3(normal, u)


def reference_dominant_patch(points, mask, normal, gap=2.5, stats=None):
    """`_dominant_patch` that always reorders and rebuilds the mask; counts
    the masks that split in `stats["splits"]`."""
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return mask
    for axis in reference_plane_basis(normal):
        idx = idx[planes._largest_segment(points[idx] @ axis, gap)]
    out = np.zeros_like(mask)
    out[idx] = True
    if stats is not None:
        stats["splits"] += int(out.sum() < mask.sum())
    return out


def reference_score(points, samples, threshold):
    """`_score_hypotheses` with a fresh array for every step of the distances."""
    p = points[samples]
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    normals = np.ascontiguousarray(planes._cross3(a, b))
    nn = np.sqrt((normals[:, None, :] @ normals[:, :, None])[:, 0, 0])
    valid = nn >= 1e-12
    normals /= np.where(valid, nn, 1.0)[:, None]
    d = (normals[:, None, :] @ p[:, 0, :, None])[:, 0, 0]
    inliers = np.abs(normals @ points.T - d[:, None]) <= threshold
    return inliers, np.where(valid, np.count_nonzero(inliers, axis=1), 0)


def reference_extract_planes(cloud, cfg, stats):
    """`extract_planes` without predictions, refitting every detection at the
    end. Run with `reference_dominant_patch`, `reference_plane_basis` and
    `reference_score` patched into `planes`.

    Counts in `stats` the fits the reassignment drops below `min_inliers`
    ("dropped").
    """
    rng = np.random.default_rng((cfg.seed, np.uint64(abs(hash(cloud.timestamp)))))
    pts = cloud.points
    remaining_idx = np.arange(len(cloud))
    fits = []
    while remaining_idx.size >= max(cfg.min_inliers, 3):
        remaining = pts[remaining_idx]
        best_mask, best_count = planes._ransac_round(rng, remaining, cfg)
        if best_mask is None or best_count < cfg.min_inliers:
            break
        mask, normal, d = planes._trim_fit(remaining, best_mask, cfg)
        fits.append((normal, d, remaining_idx[mask]))
        remaining_idx = remaining_idx[~mask]

    kept = []
    for k, (normal, d, _) in enumerate(fits):
        dists = np.stack([np.abs(pts @ n - e) for n, e, _ in fits])
        owned_idx = np.nonzero((np.argmin(dists, axis=0) == k) & (dists[k] <= cfg.threshold))[0]
        owned = pts[owned_idx]
        mask = planes._dominant_patch(owned, np.ones(owned_idx.size, dtype=bool), normal)
        if int(mask.sum()) < cfg.min_inliers:
            stats["dropped"] += 1
            continue
        mask, normal, d = planes._trim_fit(owned, mask, cfg)
        kept.append(owned_idx[mask])

    detections = []
    for idx in kept:
        inliers = pts[idx]
        normal, d = planes._fit_plane_lsq(inliers)
        plane = PlaneHessian(normal, d)
        detections.append(planes.PlaneDetection(plane, planes.plane_extent(inliers, plane), idx))
    return detections


def plane_with_outliers(n_in, n_out, seed=0, sigma=0.0):
    """n_in points on z = 0 and n_out points 0.5-2 m above it. Noiseless,
    every sample of three plane points scores exactly n_in, so the adaptive
    stop falls at a hypothesis count fixed by the inlier ratio."""
    rng = np.random.default_rng(seed)
    on = np.column_stack([rng.uniform(-2, 2, size=(n_in, 2)), np.zeros(n_in)])
    off = np.column_stack([rng.uniform(-2, 2, size=(n_out, 2)), rng.uniform(0.5, 2.0, n_out)])
    on[:, 2] = rng.normal(0.0, sigma, n_in)
    return np.vstack([on, off])


def degenerate_cloud(seed=0):
    """Plane points, each repeated four times, plus points on the x axis:
    duplicate and collinear samples have an exactly zero normal."""
    rng = np.random.default_rng(seed)
    plane = np.column_stack([rng.uniform(-2, 2, size=(40, 2)), np.full(40, 1.0)])
    line = np.column_stack([rng.uniform(-2, 2, 120), np.zeros(120), np.zeros(120)])
    return np.vstack([np.repeat(plane, 4, axis=0), line])


def collinear_cloud():
    """Points on an oblique line: through rounding, ~95 % of samples have a
    normal of norm 1e-18 to 1e-14 rather than zero."""
    return np.outer(np.linspace(-3, 3, 150), [0.3, 0.7, -0.2]) + np.array([1.0, 2.0, 0.5])


def detection_bytes(dets):
    return [
        (
            det.plane.normal.tobytes(),
            float(det.plane.distance).hex(),
            det.inlier_count,
            det.extent.tobytes(),
            det.inlier_indices.tobytes(),
        )
        for det in dets
    ]


class TestBatchedRansac:
    """`_ransac_round` draws each batch of `_CHUNK` hypotheses in one call and
    scores it at once; every result and the generator state it leaves equal
    those of the same draws scored one at a time."""

    CASES = {
        # name: (points, max_iters)
        "stop inside a chunk (w = 0.7, 17 hypotheses)": (plane_with_outliers(700, 300), 300),
        "stop on a chunk boundary (w = 0.582, 32)": (plane_with_outliers(582, 418), 300),
        "stop on a chunk boundary (w = 0.469, 64)": (plane_with_outliers(469, 531, seed=1), 500),
        # with round seed 0 the last batch holds a larger count past the stop
        "larger count drawn past the stop": (plane_with_outliers(700, 300, seed=5, sigma=0.01), 300),
        "single exact plane (w = 1, 1 hypothesis)": (plane_with_outliers(300, 0), 300),
        "no stop, max_iters 300": (np.random.default_rng(99).uniform(-5, 5, size=(200, 3)), 300),
        "no stop, max_iters 500": (np.random.default_rng(98).uniform(-5, 5, size=(200, 3)), 500),
        "duplicate and collinear samples": (degenerate_cloud(), 300),
        "all samples collinear, max_iters 300": (collinear_cloud(), 300),
        "all samples collinear, max_iters 500": (collinear_cloud(), 500),
        "box faces": (box_cloud(sigma=0.01)[0].points, 300),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_round_equals_one_at_a_time_loop(self, name):
        points, max_iters = self.CASES[name]
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=max_iters)
        for seed in range(4):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            mask, count = planes._ransac_round(rng, points, cfg)
            ref_mask, ref_count, *_ = reference_round(ref_rng, points, cfg)
            assert count == ref_count
            if ref_mask is None:
                assert mask is None
            else:
                assert np.array_equal(mask, ref_mask)
            # the next round draws from the same stream
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_cases_reach_every_stop(self):
        """With round seed 0 the cases above stop inside a chunk, on a chunk
        boundary, after one hypothesis and at max_iters (300 and 500, not
        multiples of 32), ignore a larger count drawn past the stop, and
        draw degenerate samples."""
        assert planes._CHUNK == 32
        runs = {}
        degenerate = 0
        for name, (points, max_iters) in self.CASES.items():
            cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=max_iters)
            _, count, drawn, considered, k, past_stop = reference_round(np.random.default_rng(0), points, cfg)
            runs[name] = (drawn, considered)
            degenerate += k
            if name == "larger count drawn past the stop":
                assert past_stop > count
        assert runs["stop inside a chunk (w = 0.7, 17 hypotheses)"] == (32, 17)
        assert runs["stop on a chunk boundary (w = 0.582, 32)"] == (32, 32)
        assert runs["stop on a chunk boundary (w = 0.469, 64)"] == (64, 64)
        assert runs["single exact plane (w = 1, 1 hypothesis)"] == (32, 1)
        assert runs["no stop, max_iters 300"] == (300, 300)
        assert runs["no stop, max_iters 500"] == (500, 500)
        assert runs["all samples collinear, max_iters 500"] == (500, 500)
        assert degenerate >= 800

    @pytest.mark.parametrize("max_iters", [300, 500])
    @pytest.mark.parametrize(
        "cloud",
        [
            box_cloud(sigma=0.01)[0],
            box_cloud(rng=np.random.default_rng(7), sigma=0.02, n_per_face=250)[0],
            PointCloud(np.vstack([box_cloud(sigma=0.0)[0].points, degenerate_cloud()]), 2.0),
            PointCloud(plane_with_outliers(582, 418), 3.0),
            PointCloud(collinear_cloud(), 4.0),
            # its first round ignores a count of 690 drawn past the stop its 683 set
            PointCloud(plane_with_outliers(700, 300, seed=5, sigma=0.01), 6.0),
        ],
        ids=[
            "box",
            "noisy-box",
            "box-with-degenerate",
            "plane-with-outliers",
            "collinear",
            "noisy-plane-larger-count-past-a-stop",
        ],
    )
    def test_detections_equal_one_at_a_time_loop(self, monkeypatch, cloud, max_iters):
        # later rounds of a multi-plane cloud see the right stream only if
        # every earlier round drew exactly the batches it should
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=max_iters, seed=3)
        got = detection_bytes(planes.extract_planes(cloud, cfg))
        monkeypatch.setattr(planes, "_ransac_round", lambda rng, pts, c: reference_round(rng, pts, c)[:2])
        want = detection_bytes(planes.extract_planes(cloud, cfg))
        assert got == want

    def test_chunk_counts_equal_per_hypothesis_counts(self):
        points = np.vstack([box_cloud(sigma=0.01)[0].points, degenerate_cloud()])
        rng = np.random.default_rng(5)
        samples = np.array([rng.choice(points.shape[0], size=3, replace=False) for _ in range(200)])
        # plus duplicate and collinear triples
        samples[:3] = [[2400, 2401, 2402], [2560, 2561, 2562], [0, 0 + 2400, 2400]]
        thr = 0.03
        inliers, counts = planes._score_hypotheses(points, samples, thr)
        assert counts[:2].tolist() == [0, 0]
        for row, sample in enumerate(samples):
            p0, p1, p2 = points[sample]
            n = planes._cross3(p1 - p0, p2 - p0)
            nn = np.linalg.norm(n)
            if nn < 1e-12:
                assert counts[row] == 0
                continue
            n = n / nn
            d = n @ p0
            assert counts[row] == int((np.abs(points @ n - d) <= thr).sum())
            assert np.array_equal(inliers[row], np.abs(points @ n - d) <= thr)


def ring_clouds(seeds=(0, 1, 2), every=4):
    """Preprocessed keyframe-like ring scans of a two-room world with a
    corridor: doorways split walls into collinear patches, and junctions put
    points in the bands of two planes."""
    layout = default_multi_room_layout(2)
    world = generate_world(layout)
    traj = TrajectorySpec(waypoints=perimeter_waypoints(list(layout.rects)))
    cfg = SlamConfig()
    clouds = {}
    for seed in seeds:
        noise = NoiseSpec(trans_drift=0.02, rot_drift=0.005, range_sigma=0.01, seed=seed)
        for i, step in enumerate(simulate_run(world, traj, noise, ScanPattern(max_range=9.0))[::every]):
            clouds[f"rooms2-seed{seed}-step{every * i}"] = planes.preprocess(step.scan, cfg.filter)
    return clouds


@pytest.fixture(scope="module")
def settled_runs():
    """name -> run over box, planted and ring clouds: the cloud, its points
    before extraction, the detections of `extract_planes` and of the
    reference, and the reference's stats."""
    clouds = {
        "box": (box_cloud(sigma=0.0)[0], 300),
        "noisy-box": (box_cloud(sigma=0.01)[0], 300),
        "noisier-box": (box_cloud(rng=np.random.default_rng(7), sigma=0.02, n_per_face=250)[0], 500),
        "box-with-degenerate": (PointCloud(np.vstack([box_cloud(sigma=0.0)[0].points, degenerate_cloud()]), 2.0), 300),
        "noisy-plane-with-outliers": (PointCloud(plane_with_outliers(700, 300, seed=5, sigma=0.01), 6.0), 300),
    }
    clouds.update((name, (cloud, 300)) for name, cloud in ring_clouds().items())
    runs = {}
    for name, (cloud, max_iters) in clouds.items():
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=max_iters, seed=3)
        points = cloud.points.tobytes()
        dets = planes.extract_planes(cloud, cfg)
        runs[name] = {"cloud": cloud, "cfg": cfg, "points_before": points, "dets": dets}
        runs[name]["dets_empty_map"] = planes.extract_planes(cloud, cfg, np.empty((0, 4)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planes, "_dominant_patch", lambda p, m, n: reference_dominant_patch(p, m, n, stats=stats))
        mp.setattr(planes, "_plane_basis", reference_plane_basis)
        mp.setattr(planes, "_score_hypotheses", reference_score)
        for run in runs.values():
            stats = {"splits": 0, "dropped": 0}
            run["want"] = reference_extract_planes(run["cloud"], run["cfg"], stats)
            run["stats"] = stats
    return runs


class TestSettledWork:
    """`extract_planes` skips the final refit, sorts only where a patch
    splits and scores in place; its detections equal, byte for byte, those
    of the code that redoes all of it."""

    def test_detections_equal_the_reference(self, settled_runs):
        for name, run in settled_runs.items():
            assert detection_bytes(run["dets"]) == detection_bytes(run["want"]), name

    def test_an_empty_map_equals_the_reference(self, settled_runs):
        # no prediction claims anything, and the RANSAC stream is untouched
        for name, run in settled_runs.items():
            assert detection_bytes(run["dets_empty_map"]) == detection_bytes(run["want"]), name

    def test_every_plane_is_the_fit_of_its_inliers(self, settled_runs):
        # what lets the final refit go
        for name, run in settled_runs.items():
            for det in run["dets"]:
                normal, d = planes._fit_plane_lsq(run["cloud"].points[det.inlier_indices])
                assert det.plane.normal.tobytes() == normal.tobytes(), name
                assert det.plane.distance.hex() == float(d).hex(), name

    def test_cloud_is_left_unchanged(self, settled_runs):
        for name, run in settled_runs.items():
            assert run["cloud"].points.tobytes() == run["points_before"], name

    def test_clouds_cover_drops_and_splits(self, settled_runs):
        runs = settled_runs.values()
        for key in ("splits", "dropped"):
            assert sum(run["stats"][key] for run in runs) > 0, key
        assert sum(len(run["dets"]) for run in runs) >= 100


def count_rounds(monkeypatch):
    """Patch `_ransac_round` to count its calls; returns the one-item counter."""
    calls = [0]
    ransac_round = planes._ransac_round

    def counted(*args):
        calls[0] += 1
        return ransac_round(*args)

    monkeypatch.setattr(planes, "_ransac_round", counted)
    return calls


@pytest.fixture(scope="module")
def rooms2_keyframes():
    """(cloud, mapped-plane predictions) of every keyframe of a noisy
    two-room run, as `process_step` hands them to `extract_planes`."""
    layout = default_multi_room_layout(2)
    traj = TrajectorySpec(waypoints=perimeter_waypoints(list(layout.rects)))
    noise = NoiseSpec(trans_drift=0.02, rot_drift=0.005, range_sigma=0.01, seed=0)
    steps = simulate_run(generate_world(layout), traj, noise, ScanPattern(max_range=9.0))
    recorded = []
    extract = pipeline.extract_planes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "extract_planes", lambda c, cfg, pred: recorded.append((c, pred)) or extract(c, cfg, pred))
        run_slam(steps, SlamConfig())
    return recorded


class TestMapGuidedExtraction:
    """Mapped planes, predicted into the sensor frame, claim their points
    before RANSAC searches; the detections are still the cloud's own fits."""

    CFG = SlamConfig().ransac

    def test_claims_replace_most_ransac_rounds(self, monkeypatch, rooms2_keyframes):
        assert rooms2_keyframes[0][1] is None  # the first keyframe sees an empty map: no prediction
        assert all(len(pred) for _, pred in rooms2_keyframes[1:])
        rounds = count_rounds(monkeypatch)
        for cloud, pred in rooms2_keyframes[1:]:
            planes.extract_planes(cloud, self.CFG, pred)
        with_map = rounds[0]
        rounds[0] = 0
        for cloud, _ in rooms2_keyframes[1:]:
            planes.extract_planes(cloud, self.CFG)
        # 27 against 96 when this was written
        assert with_map <= rounds[0] // 2

    def test_every_plane_is_the_fit_of_its_inliers(self, rooms2_keyframes):
        for cloud, pred in rooms2_keyframes:
            for det in planes.extract_planes(cloud, self.CFG, pred):
                normal, d = planes._fit_plane_lsq(cloud.points[det.inlier_indices])
                assert det.plane.normal.tobytes() == normal.tobytes()
                assert det.plane.distance.hex() == float(d).hex()

    @pytest.mark.parametrize("min_inliers", [100, 250])
    def test_every_detection_holds_min_inliers(self, rooms2_keyframes, min_inliers):
        # what lets `process_step` pass its keep threshold as RANSAC's floor
        # and keep every detection
        cfg = replace(self.CFG, min_inliers=min_inliers)
        dets = [det for cloud, pred in rooms2_keyframes for det in planes.extract_planes(cloud, cfg, pred)]
        assert len(dets) >= 50
        for det in dets:
            assert det.inlier_count == det.inlier_indices.size >= min_inliers

    def test_prediction_without_support_claims_nothing(self, monkeypatch):
        cloud, planted = box_cloud(sigma=0.01)
        # a wall 5 m beyond the box, and a floor below it
        pred = np.array([[1.0, 0.0, 0.0, 7.0], [0.0, 0.0, -1.0, 6.0]])
        rounds = count_rounds(monkeypatch)
        got = planes.extract_planes(cloud, self.CFG, pred)
        assert rounds[0] == 6  # one per face, as without the predictions
        assert detection_bytes(got) == detection_bytes(planes.extract_planes(cloud, self.CFG))
        assert len(got) == 6
        assert all(ang < 0.01 and derr < 0.01 for ang, derr in match_detections(got, planted))

    def test_claimed_face_is_refit_from_its_points(self, monkeypatch):
        cloud, _ = box_cloud(sigma=0.0)
        # the x = +2 face, predicted 6 cm out and tilted by 0.01 rad
        tilt = 0.01
        pred = np.array([[math.cos(tilt), math.sin(tilt), 0.0, 2.06]])
        rounds = count_rounds(monkeypatch)
        dets = planes.extract_planes(cloud, self.CFG, pred)
        assert rounds[0] == 5  # the other five faces; nothing is left after them
        assert len(dets) == 6
        face = dets[0]
        assert face.plane.normal.tolist() == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert face.plane.distance == pytest.approx(2.0, abs=1e-12)
        assert np.all(cloud.points[face.inlier_indices, 0] == 2.0)

    @pytest.mark.parametrize("offset, observed", [(0.03, True), (0.08, False)])
    def test_association_still_gates_a_claimed_plane(self, monkeypatch, offset, observed):
        """A mapped wall `offset` outside the box face x = +2 claims that
        face either way; the refit detection is an observation of it only
        inside the Mahalanobis gate (3 sigma = 0.06 m in distance at the
        first keyframe, which has no odometry uncertainty)."""
        wall = PlaneLandmark(id=0, params=PlaneMinimal(0.0, 0.0, 2.0 + offset),
                             plane_class=PlaneClass.X_VERTICAL, extent=np.ones(2))
        graph = SGraph(planes={0: wall}, _next_plane_id=1)
        cfg = SlamConfig(enable_topology=False, optimize_every_keyframe=False)
        cloud, _ = box_cloud(sigma=0.0)
        rounds = count_rounds(monkeypatch)
        process_step(SimStep(1.0, Pose3.identity(), Pose3.identity(), cloud), cfg, SlamResult(graph))
        assert rounds[0] == 5  # the face was claimed, not searched for
        seen = [f.variables[1][1] for f in graph.factors if f.kind is FactorKind.POSE_PLANE]
        assert len(seen) == 6
        assert (0 in seen) is observed
        assert seen.count(0) == observed
        assert len(graph.planes) == 7 - observed


class TestDrawTriples:
    @pytest.mark.parametrize("n", [3, 4, 5, 100])
    def test_indices_in_range_and_distinct(self, n):
        s = planes._draw_triples(np.random.default_rng(n), n, 5000)
        assert s.shape == (5000, 3)
        assert s.min() >= 0 and s.max() < n
        assert np.all((s[:, 0] != s[:, 1]) & (s[:, 0] != s[:, 2]) & (s[:, 1] != s[:, 2]))

    def test_three_points_give_only_their_permutations(self):
        s = planes._draw_triples(np.random.default_rng(0), 3, 600)
        assert set(map(tuple, s.tolist())) == set(itertools.permutations(range(3)))

    def test_ordered_triples_are_uniform(self):
        n, draws = 5, 200_000
        s = planes._draw_triples(np.random.default_rng(2024), n, draws)
        counts = np.bincount((s[:, 0] * n + s[:, 1]) * n + s[:, 2], minlength=n**3)
        triples = list(itertools.permutations(range(n), 3))
        p = 1.0 / len(triples)
        observed = np.array([counts[(i * n + j) * n + k] for i, j, k in triples])
        assert observed.sum() == draws
        assert np.all(np.abs(observed - draws * p) <= 5.0 * math.sqrt(draws * p * (1.0 - p)))

    def test_empty_batch(self):
        assert planes._draw_triples(np.random.default_rng(0), 5, 0).shape == (0, 3)

    def test_one_generator_call_per_batch(self):
        class CountingRng:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.sizes = []

            def integers(self, low, high, size):
                self.sizes.append(size[0])
                return self.rng.integers(low, high, size=size)

        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300)
        rng = CountingRng(0)
        planes._ransac_round(rng, np.random.default_rng(99).uniform(-5, 5, size=(200, 3)), cfg)
        assert rng.sizes == [32] * 9 + [12]
        rng = CountingRng(0)
        planes._ransac_round(rng, plane_with_outliers(469, 531, seed=1), cfg)
        assert rng.sizes == [32, 32]


class TestPlaneBasis:
    def test_equals_the_norm_form(self):
        rng = np.random.default_rng(17)
        normals = rng.normal(size=(500, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        # within 1e-6 of +-x: these take the +y fallback
        near_x = np.column_stack([np.ones(40), rng.uniform(-7e-7, 7e-7, size=(40, 2))])
        near_x /= np.linalg.norm(near_x, axis=1)[:, None]
        near_x[::2] *= -1.0
        fallback = 0
        for normal in np.vstack([normals, near_x, [[1.0, 0, 0], [-1.0, 0, 0]]]):
            u, v = planes._plane_basis(normal)
            want_u, want_v = reference_plane_basis(normal)
            assert u.tobytes() == want_u.tobytes() and v.tobytes() == want_v.tobytes()
            fallback += np.linalg.norm([1.0, 0, 0] - normal[0] * normal) < 1e-6
        assert fallback == 42


class TestTrim:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10, 101, 1000, 1001])
    def test_median_equals_numpy(self, size):
        rng = np.random.default_rng(size)
        for x in (rng.normal(size=size), rng.normal(size=size) * 1e-3 + 0.1, np.round(rng.normal(size=size), 1)):
            assert planes._median(x).hex() == float(np.median(x)).hex()

    def test_trim_on_owned_points_equals_allowed_mask(self):
        cloud, _ = box_cloud(sigma=0.01)
        pts = cloud.points
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300)
        for normal in map(np.array, ([0, 0, 1.0], [1.0, 0, 0], [0, -1.0, 0])):
            # owned: the points in a band around a face, minus a stripe of
            # that face, which the untrimmed band would take back
            dist = np.abs(pts @ normal - 2.0)
            for width in (0.03, 0.2, 0.6):
                owned = (dist <= width) & (pts @ np.roll(normal, 1) < 1.5)
                mask = planes._dominant_patch(pts, owned, normal)
                want_mask, want_n, want_d = reference_trim_fit(pts, mask, cfg, allowed=owned)
                owned_idx = np.nonzero(owned)[0]
                got_mask, got_n, got_d = planes._trim_fit(pts[owned_idx], mask[owned_idx], cfg)
                assert np.array_equal(owned_idx[got_mask], np.nonzero(want_mask)[0])
                assert got_n.tobytes() == want_n.tobytes()
                assert float(got_d).hex() == float(want_d).hex()

    @staticmethod
    def run_patched(monkeypatch, pts, start, sequence, cfg):
        """`_trim_fit` with `_dominant_patch` returning `sequence` in turn;
        returns (mask, normal, d, patch calls)."""
        calls = []

        def patch(points, mask, normal):
            calls.append(None)
            return sequence[(len(calls) - 1) % len(sequence)]

        monkeypatch.setattr(planes, "_dominant_patch", patch)
        mask, normal, d = planes._trim_fit(pts, start, cfg)
        want_n, want_d = planes._fit_plane_lsq(pts[mask])
        # the plane returned is the fit of the mask returned
        assert normal.tobytes() == want_n.tobytes() and d == want_d
        return mask, len(calls)

    def test_repeated_mask_returns_the_largest_mask_of_its_cycle(self, monkeypatch):
        cloud, _ = box_cloud(sigma=0.01)
        pts = cloud.points[:800]  # the two x faces
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300)
        idx = np.arange(800)
        a = idx < 400
        b, c, d = a & (idx % 3 > 0), a & (idx % 5 > 0), a & (idx % 7 > 0)
        # a period-2 cycle through the start: stops at the repeat, keeps a
        mask, calls = self.run_patched(monkeypatch, pts, a, [b, a], cfg)
        assert calls == 2 and np.array_equal(mask, a)
        # after a lead-in, the cycle b -> c -> d -> b: d has the most points
        mask, calls = self.run_patched(monkeypatch, pts, a, [b, c, d], cfg)
        assert calls == 4 and np.array_equal(mask, d)
        # equal counts: the cycle's first mask wins
        e = a & (idx >= 134)
        assert e.sum() == b.sum()
        mask, calls = self.run_patched(monkeypatch, pts, a, [e, b], cfg)
        assert calls == 3 and np.array_equal(mask, e)

    def test_mask_changing_to_the_cap_returns_the_fit_of_its_mask(self, monkeypatch):
        # a mask that changes without repeating runs all 25 iterations
        cloud, _ = box_cloud(sigma=0.01)
        pts = cloud.points[:800]
        cfg = RansacConfig(threshold=0.03, min_inliers=100, max_iters=300)
        shrinking = [np.arange(800) < 400 - k for k in range(1, 30)]
        mask, calls = self.run_patched(monkeypatch, pts, np.arange(800) < 400, shrinking, cfg)
        assert calls == 25 and np.array_equal(mask, shrinking[24])


class TestSegments:
    def test_gap_equal_to_the_limit_does_not_split(self):
        coords = np.array([1.0, 0.0, 0.5])  # steps of exactly 0.5
        assert sorted(planes._largest_segment(coords, 0.5).tolist()) == [0, 1, 2]
        assert sorted(planes._largest_segment(np.array([1.25, 0.0, 0.5]), 0.5).tolist()) == [1, 2]

    def test_equal_runs_go_to_the_first(self):
        coords = np.array([5.1, 0.1, 5.0, 0.0])
        assert sorted(planes._largest_segment(coords, 1.0).tolist()) == [1, 3]

    def test_empty_mask_comes_back_unchanged(self):
        pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 3))
        mask = np.zeros(20, dtype=bool)
        out = planes._dominant_patch(pts, mask, np.array([0.0, 0.0, 1.0]))
        assert out is mask and not out.any()

    def test_collinear_walls_keep_the_larger(self):
        rng = np.random.default_rng(1)
        # two walls on the plane x = 2, 3 m apart along y: 1 m and 0.5 m long
        big = np.column_stack([np.full(60, 2.0), rng.uniform(0.0, 1.0, 60), rng.uniform(0.0, 2.0, 60)])
        small = np.column_stack([np.full(30, 2.0), rng.uniform(4.0, 4.5, 30), rng.uniform(0.0, 2.0, 30)])
        pts = np.vstack([small, big])
        mask = planes._dominant_patch(pts, np.ones(90, dtype=bool), np.array([-1.0, 0.0, 0.0]))
        assert np.array_equal(mask, np.arange(90) >= 30)


    @staticmethod
    def floor_patches(rng, boxes):
        """Points on the plane z = 1: 80 in the first (x0, x1, y0, y1) box,
        40 in each other box."""
        return np.vstack([
            np.column_stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n), np.ones(n)])
            for n, (x0, x1, y0, y1) in zip([80] + [40] * len(boxes), boxes)
        ])

    @pytest.mark.parametrize(
        "boxes, splits",
        [
            ([(0, 3, 0, 3)], False),
            ([(0, 3, 0, 3), (4, 5, 0, 3), (0, 3, 4, 5)], False),  # gaps below the limit
            ([(0, 3, 0, 3), (6, 7, 0, 3)], True),  # along x
            ([(0, 3, 0, 3), (0, 3, 6, 7)], True),  # along y
            ([(0, 3, 0, 3), (6, 7, 0, 3), (0, 3, 6, 7)], True),  # along x, then y
            ([(0, 3, 0, 3), (6, 7, 6, 7), (0, 1, 10, 11)], True),  # y gap only after the x split
        ],
        ids=["one-patch", "small-gaps", "x-split", "y-split", "x-then-y", "hidden-y-gap"],
    )
    @pytest.mark.parametrize("normal", [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
    def test_patch_equals_reference(self, boxes, splits, normal):
        rng = np.random.default_rng(len(boxes))
        pts = self.floor_patches(rng, boxes)
        for mask in (np.ones(len(pts), dtype=bool), rng.uniform(size=len(pts)) < 0.7):
            got = planes._dominant_patch(pts, mask, np.array(normal))
            assert np.array_equal(got, reference_dominant_patch(pts, mask, np.array(normal)))
            if splits:
                assert np.array_equal(got, mask & (np.arange(len(pts)) < 80))
            else:  # no gap: the mask comes back as given
                assert got is mask


class TestPlaneExtent:
    def test_rectangle_corners(self):
        plane = PlaneHessian(np.array([0.0, 0.0, 1.0]), 0.0)
        pts = np.array([[0, 0, 0], [2, 0, 0], [0, 3, 0], [2, 3, 0]], dtype=float)
        assert np.allclose(plane_extent(pts, plane), [2.0, 3.0], atol=1e-12)

    def test_unit_square(self):
        plane = PlaneHessian(np.array([0.0, 0.0, 1.0]), 0.0)
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        extent = plane_extent(pts, plane)
        assert np.allclose(extent, [1.0, 1.0], atol=1e-12)

    def test_collinear_reports_zero_component(self):
        plane = PlaneHessian(np.array([0.0, 0.0, 1.0]), 0.0)
        pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        extent = plane_extent(pts, plane)
        assert extent[0] == pytest.approx(0.0, abs=1e-12)
        assert extent[1] == pytest.approx(2.0, abs=1e-12)

    def test_too_few_inliers(self):
        plane = PlaneHessian(np.array([0.0, 0.0, 1.0]), 0.0)
        with pytest.raises(TooFewPoints):
            plane_extent(np.zeros((2, 3)), plane)

    def test_extent_invariant_to_point_order(self):
        rng = np.random.default_rng(3)
        plane = PlaneHessian(np.array([0.0, 0.0, 1.0]), 1.0)
        pts = rng.uniform(-2, 2, size=(50, 3))
        pts[:, 2] = 1.0
        e1 = plane_extent(pts, plane)
        e2 = plane_extent(pts[::-1], plane)
        assert np.allclose(e1, e2)

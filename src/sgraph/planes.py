"""Point-cloud pre-filtering and plane detection: mapped planes claim their
points first, sequential RANSAC searches the rest, and one joint pass hands
each point to its nearest plane."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PlaneHessian, flip_to_positive


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of 3-vectors, or row by row of (B, 3) arrays."""
    # not np.cross: that costs over 10x more per call on 3-vectors, and
    # `_plane_basis` calls this thousands of times per replay; RANSAC
    # scoring calls it once per batch of hypotheses
    a, b = a.T, b.T
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    ).T


class EmptyCloud(ValueError):
    """All points were removed by the pre-filter."""


class TooFewPoints(ValueError):
    """Not enough points for the requested operation."""


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (N, 3) meters, sensor frame
    timestamp: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class FilterConfig:
    voxel_size: float = 0.1
    k_sigma: float = 2.0


@dataclass(frozen=True)
class RansacConfig:
    threshold: float = 0.03
    min_inliers: int = 100
    max_iters: int = 500
    seed: int = 0


@dataclass(frozen=True)
class PlaneDetection:
    plane: PlaneHessian  # sensor frame, d >= 0
    extent: np.ndarray  # 2-vector, in-plane bounding box side lengths
    inlier_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def inlier_count(self) -> int:
        return self.inlier_indices.size


def voxel_downsample(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """Keep one centroid per occupied voxel, the voxels in lexicographic
    order of their (x, y, z) indices. Each point's three indices pack into
    one int64 code, mixed radix over the cloud's own index span along each
    axis, so one stable sort of the codes orders the points exactly as a
    lexicographic sort of the indices would. A cloud whose indices or whose
    grid of spans int64 cannot hold raises ValueError."""
    if points.shape[0] == 0:
        return points
    # one row per axis: the reductions and the packing below then run
    # along contiguous rows
    cells = np.floor(np.ascontiguousarray(points.T) / voxel_size)
    lo, hi = cells.min(axis=1), cells.max(axis=1)
    # the span arithmetic in Python integers, which cannot overflow
    if not (-(2.0**63) <= lo.min() and hi.max() < 2.0**63):
        raise ValueError(f"voxel indices {lo.tolist()} to {hi.tolist()} at {voxel_size} m exceed int64")
    lo = [int(c) for c in lo]
    spans = [int(c) - low + 1 for c, low in zip(hi, lo)]
    if math.prod(spans) >= 2**63:
        raise ValueError(f"a voxel grid of {' x '.join(map(str, spans))} cells at {voxel_size} m exceeds int64")
    keys = cells.astype(np.int64) - np.array(lo)[:, None]
    codes = (keys[0] * spans[1] + keys[1]) * spans[2] + keys[2]
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = np.flatnonzero(np.concatenate([[True], codes[1:] != codes[:-1]]))
    counts = np.diff(np.append(starts, codes.size))[:, None]
    return np.add.reduceat(points.take(order, axis=0), starts, axis=0) / counts


def preprocess(cloud: PointCloud, cfg: FilterConfig) -> PointCloud:
    """Drop non-finite returns, voxel downsample, then reject range outliers
    beyond k_sigma stddevs. A voxel size or k_sigma that is not finite and
    above 0 raises ValueError: it would merge or empty the cloud."""
    for name in ("voxel_size", "k_sigma"):
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"FilterConfig.{name} must be finite and > 0, not {value!r}")
    if len(cloud) == 0:
        raise EmptyCloud("input cloud is empty")
    # one NaN or inf return would make the range mean NaN and empty the cloud
    pts = cloud.points
    if not np.isfinite(pts).all():
        pts = pts[np.isfinite(pts).all(axis=1)]
    if pts.shape[0] == 0:
        raise EmptyCloud("no finite points in the cloud")
    pts = voxel_downsample(pts, cfg.voxel_size)
    if pts.shape[0] == 0:
        raise EmptyCloud("no points left after voxel filter")
    ranges = np.linalg.norm(pts, axis=1)
    mean, std = float(ranges.mean()), float(ranges.std())
    keep = np.abs(ranges - mean) <= cfg.k_sigma * std + 1e-12
    pts = pts[keep]
    if pts.shape[0] == 0:
        raise EmptyCloud("no points left after range filter")
    return PointCloud(pts, cloud.timestamp)


def _fit_plane_lsq(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares plane through points: centroid + smallest scatter eigvec.

    Returns (unit normal, distance) with d >= 0.
    """
    # `points.mean(axis=0)`, bit for bit, without its overhead
    centroid = np.add.reduce(points, axis=0) / points.shape[0]
    centered = points - centroid
    cov = centered.T @ centered
    _, vecs = np.linalg.eigh(cov)
    normal = vecs[:, 0]
    d = float(normal @ centroid)
    return flip_to_positive(normal, d)


def _plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic in-plane orthonormal basis.

    First axis is the projection of +x onto the plane, falling back to +y
    when the normal is (nearly) aligned with x.
    """
    axis = np.array([1.0, 0.0, 0.0])
    u = axis - (axis @ normal) * normal
    # math.sqrt(u @ u) is the 1-D np.linalg.norm, bit for bit, without its overhead
    if math.sqrt(u @ u) < 1e-6:
        axis = np.array([0.0, 1.0, 0.0])
        u = axis - (axis @ normal) * normal
    u = u / math.sqrt(u @ u)
    v = _cross3(normal, u)
    return u, v


def plane_extent(points: np.ndarray, plane: PlaneHessian) -> np.ndarray:
    """In-plane bounding-box side lengths, ascending."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if points.shape[0] < 3:
        raise TooFewPoints(f"{points.shape[0]} inliers < 3")
    u, v = _plane_basis(plane.normal)
    pu = points @ u
    pv = points @ v
    return np.sort(np.array([pu.max() - pu.min(), pv.max() - pv.min()]))


def _largest_segment(coords: np.ndarray, gap: float) -> np.ndarray:
    """Indices of the biggest run of sorted 1-D coords with no gap > gap."""
    order = coords.argsort()
    ordered = coords[order]
    breaks = (ordered[1:] - ordered[:-1] > gap).nonzero()[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [coords.size]])
    best = int((ends - starts).argmax())
    return order[starts[best]:ends[best]]


_PATCH_GAP = 2.5  # m, the in-plane gap at which `_dominant_patch` splits a mask


def _dominant_patch(points: np.ndarray, mask: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Restrict an inlier mask to its dominant in-plane patch.

    Nearly-collinear walls of different rooms (and wall stripes seen through
    door openings) can satisfy the plane distance test while lying metres
    apart along the plane; a split at every gap over `_PATCH_GAP` along each
    in-plane axis separates them without fragmenting sparse ring-sampled
    surfaces. A mask that splits along neither axis comes back as given.
    """
    idx = mask.nonzero()[0]
    if idx.size == 0:
        return mask
    patch = points[idx]
    split = False
    for axis in _plane_basis(normal):
        coords = patch @ axis
        # a plain sort finds whether there is a gap at all; only a split
        # needs the argsort that picks the segment
        ordered = coords.copy()
        ordered.sort()
        if (ordered[1:] - ordered[:-1] > _PATCH_GAP).any():
            segment = _largest_segment(coords, _PATCH_GAP)
            idx, patch = idx[segment], patch[segment]
            split = True
    if not split:
        return mask
    out = np.zeros_like(mask)
    out[idx] = True
    return out


def _median(x: np.ndarray) -> float:
    """`np.median` of a non-empty 1-D float array, bit for bit, without its overhead."""
    h = x.size // 2
    part = x.copy()
    if x.size % 2:
        part.partition(h)
        return float(part[h])
    part.partition((h - 1, h))
    return float((part[h - 1] + part[h]) / 2)


def _trim_fit(
    points: np.ndarray, mask: np.ndarray, cfg: RansacConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """Iteratively refit a plane and trim its inlier mask.

    The band shrinks toward 3 sigma of a robust (median-absolute-deviation)
    noise scale: points from adjacent surfaces near plane junctions sit
    inside the RANSAC band and would bias a plain least-squares fit, while
    for gaussian noise the MAD scale is consistent with sigma and the bulk
    of inliers is kept. On a repeated mask the largest mask of the cycle
    (the earliest on a tie) is returned. Returns (mask, normal, d).
    """
    seen = []  # (mask, normal, d) of every mask fitted
    for _ in range(25):
        normal, d = _fit_plane_lsq(points[mask])
        seen.append((mask, normal, d))
        signed = points @ normal - d
        r_in = signed[mask]
        med = _median(r_in)
        mad = _median(np.abs(r_in - med))
        band = min(max(3.0 * 1.4826 * mad, 1e-9), cfg.threshold)
        # center on the median: outliers shift the least-squares offset,
        # while the median tracks the dominant surface
        new_mask = _dominant_patch(points, np.abs(signed - med) <= band, normal)
        if np.count_nonzero(new_mask) < cfg.min_inliers:
            return mask, normal, d
        k = next((k for k, fit in enumerate(seen) if (fit[0] == new_mask).all()), None)
        if k is not None:  # a settled mask is a cycle of one; max keeps the first of equals
            return max(seen[k:], key=lambda fit: np.count_nonzero(fit[0]))
        mask = new_mask
    normal, d = _fit_plane_lsq(points[mask])
    return mask, normal, d


# hypotheses scored per batch; each batch is one (B, 3) @ (3, N) product
_CHUNK = 32


def _score_hypotheses(
    points: np.ndarray, samples: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Inlier masks (B, N) and counts (B,) of the planes through sample triples.

    Each plane is the one `_cross3` and the 1-D `np.linalg.norm` and `@` give
    for its triple, bit for bit: the same elementwise products, and one dot
    product per row. A degenerate triple (normal norm < 1e-12) counts 0.
    """
    p = points[samples]  # (B, 3 samples, 3 coords)
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    # C order: each normal is read contiguously, as the 1-D `@` reads it
    normals = np.ascontiguousarray(_cross3(a, b))
    nn = np.sqrt((normals[:, None, :] @ normals[:, :, None])[:, 0, 0])
    valid = nn >= 1e-12
    normals /= np.where(valid, nn, 1.0)[:, None]
    d = (normals[:, None, :] @ p[:, 0, :, None])[:, 0, 0]
    # distances in place in one (B, N) buffer: a fresh buffer per step costs
    # more than the arithmetic
    dist = normals @ points.T
    dist -= d[:, None]
    np.abs(dist, out=dist)
    inliers = dist <= threshold
    return inliers, np.where(valid, np.count_nonzero(inliers, axis=1), 0)


def _draw_triples(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """(size, 3) ordered triples of distinct indices in [0, n), exactly
    uniform, from one generator call: each column is drawn from the values
    the columns before it leave, then shifted past them."""
    s = rng.integers(0, [n, n - 1, n - 2], size=(size, 3))
    s[:, 1] += s[:, 1] >= s[:, 0]
    s[:, 2] += s[:, 2] >= s[:, :2].min(axis=1)
    s[:, 2] += s[:, 2] >= s[:, :2].max(axis=1)
    return s


def _ransac_round(
    rng: np.random.Generator, points: np.ndarray, cfg: RansacConfig
) -> tuple[np.ndarray | None, int]:
    """One RANSAC search with the adaptive stop: (best inlier mask, its count).

    Each batch of hypotheses is drawn in one generator call and scored at
    once; hypotheses a batch draws past the adaptive stop are ignored.
    Degenerate samples use up an iteration and never win.
    """
    n_pts = points.shape[0]
    best_mask = None
    best_count = 0
    needed = cfg.max_iters
    it = 0
    while it < needed:
        size = min(_CHUNK, needed - it)
        inliers, counts = _score_hypotheses(points, _draw_triples(rng, n_pts, size), cfg.threshold)
        # walk the running-max improvements only, in draw order
        before = np.maximum.accumulate(np.concatenate(([best_count], counts[:-1])))
        for j in np.nonzero(counts > before)[0]:
            if it + j >= needed:
                break
            best_count = int(counts[j])
            best_mask = inliers[j]
            # adaptive stop: trials needed to sample an all-inlier
            # triple with 99.9% confidence at the current inlier ratio
            w = best_count / n_pts
            if w >= 1.0 - 1e-12:
                needed = it + j + 1
            else:
                needed = min(
                    cfg.max_iters,
                    int(math.ceil(math.log(1e-3) / math.log(1.0 - w**3))),
                )
        it += size
    return best_mask, best_count


# a mapped plane claims the points within this many `threshold`s of its
# prediction. The odometry-predicted pose puts the far end of a wall a few
# centimetres off: on rooms4-online noise seeds 0-9, 99 % of the
# observations of mapped walls have every inlier within 0.089 m of the
# prediction. The trim of the claimed points tightens the band again.
_CLAIM_BANDS = 3.0


def extract_planes(
    cloud: PointCloud, cfg: RansacConfig, predicted: np.ndarray | None = None
) -> list[PlaneDetection]:
    """Sequential plane extraction (claim or search, refine, peel, repeat),
    then one joint reassignment of the points to the fits.

    `predicted` holds planes expected in the cloud, as (P, 4) rows of unit
    normal and distance in the sensor frame (the mapped planes, from
    `SGraph.predict_planes`). Before any RANSAC round, the prediction with
    the most remaining points within `_CLAIM_BANDS * cfg.threshold` of it
    takes those points, restricted to their dominant patch, as the round's
    winning mask; each prediction claims once, and claims stop when no
    prediction left holds `min_inliers` points. Sequential RANSAC then
    searches what is left. A claimed mask, like a RANSAC winner, is trimmed
    by `_trim_fit`, whose first refit re-masks it within `threshold`, and
    peeled, so every detection is the fit of its own points, never a
    prediction. With `predicted` left out or empty this is plain
    sequential RANSAC. Once no round finds a plane, every point goes to
    the nearest fit within `threshold`, and each fit is refined once more
    on the points it owns; a fit left with fewer than `min_inliers` is
    dropped.

    Deterministic for a fixed (cloud, cfg, predicted); the RNG is seeded
    per call from cfg.seed and the cloud timestamp, and claims draw nothing
    from it. A threshold that is not finite and above 0 raises ValueError.
    """
    if not (math.isfinite(cfg.threshold) and cfg.threshold > 0.0):
        raise ValueError(f"RansacConfig.threshold must be finite and > 0, not {cfg.threshold!r}")
    if len(cloud) < cfg.min_inliers:
        raise TooFewPoints(f"{len(cloud)} points < min_inliers {cfg.min_inliers}")
    rng = np.random.default_rng((cfg.seed, np.uint64(abs(hash(cloud.timestamp)))))
    pts = cloud.points
    predicted = np.empty((0, 4)) if predicted is None else np.asarray(predicted, dtype=float)
    # (N, P): which points lie in which prediction's claim band
    near = np.abs(pts @ predicted[:, :3].T - predicted[:, 3]) <= _CLAIM_BANDS * cfg.threshold
    remaining_idx = np.arange(len(cloud))
    fits: list[tuple[np.ndarray, float]] = []  # (normal, d)
    while remaining_idx.size >= max(cfg.min_inliers, 3):
        remaining = pts[remaining_idx]
        claims = near[remaining_idx]
        counts = np.count_nonzero(claims, axis=0)
        if counts.size and counts.max() >= cfg.min_inliers:
            k = int(np.argmax(counts))
            near[:, k] = False
            best_mask = _dominant_patch(remaining, claims[:, k], predicted[k, :3])
            if int(best_mask.sum()) < cfg.min_inliers:
                continue
        else:
            best_mask, best_count = _ransac_round(rng, remaining, cfg)
            if best_mask is None or best_count < cfg.min_inliers:
                break
        mask, normal, d = _trim_fit(remaining, best_mask, cfg)
        fits.append((normal, d))
        remaining_idx = remaining_idx[~mask]

    # one joint reassignment: near junctions a point can sit inside one
    # plane's band while lying exactly on a later-found plane, which the
    # sequential peel never offered it to; give every point to the nearest
    # fit within the band, then refine each fit on the points it owns
    if not fits:
        return []
    dists = np.stack([np.abs(pts @ n - d) for n, d in fits])
    owner = np.argmin(dists, axis=0)
    detections: list[PlaneDetection] = []
    for k, (normal, _) in enumerate(fits):
        owned_idx = np.nonzero((owner == k) & (dists[k] <= cfg.threshold))[0]
        owned = pts[owned_idx]
        mask = _dominant_patch(owned, np.ones(owned_idx.size, dtype=bool), normal)
        if int(mask.sum()) < cfg.min_inliers:
            continue
        mask, normal, d = _trim_fit(owned, mask, cfg)
        idx = owned_idx[mask]
        plane = PlaneHessian(normal, d)
        detections.append(PlaneDetection(plane, plane_extent(pts[idx], plane), idx))
    return detections

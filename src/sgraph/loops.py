"""Hard loop closure: translational candidate gating and point-to-plane
scan registration producing relative-pose constraints.

Registration minimizes each match point's distance to the plane through
its nearest query point, along that point's normal (Chen & Medioni 1992),
so a point may slide along its wall and only surfaces of independent
normals fix the pose. The normals come from a PCA of each query point's
neighbours, computed once per query keyframe."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .factors import Factor, FactorKind
from .geometry import Pose3, inverse_compose, rot_exp
from .graph import SGraph
from .planes import PointCloud

# neighbours whose PCA gives a query point's normal
NORMAL_NEIGHBOURS = 20
MIN_POINTS = 50  # points a scan and a correspondence set need for registration
ICP_TOL = 1e-8  # relative fitness change that ends registration at the final radius
# coarse-to-fine: the correspondence radius starts wide enough to cover the
# drift of the initial guess (`LoopConfig.coarse_corr_dist`) and shrinks by
# CORR_DECAY per iteration to MAX_CORR_DIST, widening the convergence basin
MAX_CORR_DIST = 1.0
CORR_DECAY = 0.7
INFO_SCALE_CAP = 1e4  # most a registration's information scale can be


class NoConvergence(RuntimeError):
    """Registration did not reach an acceptable alignment."""


@dataclass(frozen=True)
class LoopConfig:
    gate: float = 3.0  # meters between keyframe estimates
    min_keyframe_gap: int = 10
    # most accepted registrations end in 5-8 iterations; a run to the cap
    # oscillates between correspondence sets, and on square-loop seeds 0-23
    # a cap of 60 accepted as many loops per seed
    max_icp_iters: int = 20
    coarse_corr_dist: float = 3.0  # the first correspondence radius
    # mean squared point-to-plane residual, m^2. On square-loop noise seeds
    # 0-23 (range noise 0.01 m) a registration at or below it lies within
    # 0.05 m and 0.01 rad of the true relative pose; the closest miss
    # scored 5.2e-3
    accept_threshold: float = 5e-3


@dataclass(frozen=True)
class LoopConstraint:
    relative: Pose3  # maps match-frame points into the query frame
    fitness: float  # mean squared point-to-plane residual, m^2
    information: np.ndarray


def find_candidates(graph: SGraph, query_id: int, cfg: LoopConfig) -> list[int]:
    """Ids of all keyframes far enough in time and close enough in space,
    nearest first, the lower id first on a tie."""
    query = graph.keyframes[query_id].pose.translation
    out: list[tuple[float, int]] = []
    for kf_id, kf in graph.keyframes.items():
        if abs(query_id - kf_id) < cfg.min_keyframe_gap:
            continue
        dist = float(np.linalg.norm(query - kf.pose.translation))
        if dist < cfg.gate:
            out.append((dist, kf_id))
    return [kf_id for _, kf_id in sorted(out)]


def point_normals(points: np.ndarray, tree: cKDTree) -> np.ndarray:
    """Unit normal of each point: the least-variance direction (PCA) of its
    NORMAL_NEIGHBOURS nearest points, itself included. The sign is
    arbitrary; the point-to-plane step does not depend on it."""
    _, idx = tree.query(points, k=min(NORMAL_NEIGHBOURS, len(points)))
    nbrs = points[idx.reshape(len(points), -1)]
    centred = nbrs - nbrs.mean(axis=1, keepdims=True)
    _, vecs = np.linalg.eigh(centred.transpose(0, 2, 1) @ centred)
    return vecs[:, :, 0]


def register_scans(
    query: PointCloud,
    tree: cKDTree,
    normals: np.ndarray,
    match: PointCloud,
    initial_guess: Pose3,
    cfg: LoopConfig,
) -> LoopConstraint:
    """Iterative point-to-plane registration of the match scan onto the
    query scan, whose kd-tree and `point_normals` the caller passes in.

    Each iteration pairs every moved match point p with its nearest query
    point q within the correspondence radius and takes one Gauss-Newton
    step on the residuals n·(p − q) along q's normal n. The returned
    relative pose maps match-frame points into the query frame. Raises
    NoConvergence when the correspondences collapse, when they do not fix
    all six degrees of freedom (a single plane, say), or when the final
    fitness exceeds the acceptance threshold. It reads only its arguments
    and writes nothing.
    """
    if len(query) < MIN_POINTS or len(match) < MIN_POINTS:
        raise NoConvergence("too few points for registration")
    target = query.points
    pose = initial_guess
    prev_fitness = np.inf
    fitness = np.inf
    corr_dist = max(cfg.coarse_corr_dist, MAX_CORR_DIST)
    for _ in range(cfg.max_icp_iters):
        moved = match.points @ pose.rotation.T + pose.translation
        # the margin keeps a pair at exactly corr_dist, which the bounded
        # query's strict < would drop; mask stays the deciding test
        dists, idx = tree.query(moved, k=1, distance_upper_bound=corr_dist * (1.0 + 1e-9))
        mask = dists <= corr_dist
        if int(mask.sum()) < MIN_POINTS:
            raise NoConvergence("correspondence set collapsed")
        p = moved[mask]
        n = normals[idx[mask]]
        r = np.einsum("ij,ij->i", n, p - target[idx[mask]])
        fitness = float(np.mean(r**2))
        # d r / d(w, t) for the left perturbation p -> exp(w) p + t
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


def close_loops(graph: SGraph, query_id: int, cfg: LoopConfig) -> int:
    """Find, register and insert loop-closure factors for one keyframe.

    Acceptance falls off with prior distance, so the candidates are
    registered one after another, nearest first, each from the match pose
    seen from the query as its initial guess, and the first whose
    registration does not converge ends the search: no farther candidate is
    registered, even one that would converge. Candidates without a scan or
    with fewer than `MIN_POINTS` points are skipped; they say nothing
    about the registration's reach. A query keyframe without a scan of at
    least `MIN_POINTS` points registers nothing.

    The query scan's kd-tree and `point_normals` are built once, before
    the first registration, and serve every candidate; a keyframe with no
    registrable candidate builds neither. The accepted factors are
    appended in candidate order once the search has ended, so any other
    error propagates with nothing inserted. Call it once per keyframe: a
    second call for the same keyframe appends its factors again. Returns
    the number of accepted factors.
    """
    query = graph.keyframes[query_id]
    if query.scan is None or len(query.scan) < MIN_POINTS:
        return 0
    accepted: list[Factor] = []
    tree = normals = None
    for match_id in find_candidates(graph, query_id, cfg):
        match = graph.keyframes[match_id]
        if match.scan is None or len(match.scan) < MIN_POINTS:
            continue
        if tree is None:
            tree = cKDTree(query.scan.points)
            normals = point_normals(query.scan.points, tree)
        guess = inverse_compose(query.pose, match.pose)
        try:
            c = register_scans(query.scan, tree, normals, match.scan, guess, cfg)
        except NoConvergence:
            break
        accepted.append(
            Factor(
                kind=FactorKind.LOOP_CLOSURE,
                variables=(("kf", query_id), ("kf", match_id)),
                measurement=c.relative,
                information=c.information,
                robust=True,
            )
        )
    graph.factors.extend(accepted)
    return len(accepted)

"""Hard loop closure: translational candidate gating and point-to-point
scan registration producing relative-pose constraints."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .factors import Factor, FactorKind
from .geometry import Pose3, align_rigid, inverse_compose
from .graph import SGraph
from .planes import PointCloud


class NoConvergence(RuntimeError):
    """Registration did not reach an acceptable alignment."""


@dataclass(frozen=True)
class LoopConfig:
    gate: float = 3.0  # meters between keyframe estimates
    min_keyframe_gap: int = 10
    max_icp_iters: int = 60
    icp_tol: float = 1e-8  # relative fitness change
    max_corr_dist: float = 1.0
    # coarse-to-fine: the correspondence radius starts wide enough to cover
    # the drift of the initial guess and shrinks geometrically to
    # max_corr_dist, widening the convergence basin
    coarse_corr_dist: float = 3.0
    corr_decay: float = 0.7
    accept_threshold: float = 0.05  # mean squared correspondence distance, m^2
    min_points: int = 50
    info_scale_cap: float = 1e4


@dataclass(frozen=True)
class LoopConstraint:
    relative: Pose3  # maps match-frame points into the query frame
    fitness: float  # mean squared correspondence distance
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


def register_scans(
    query: PointCloud,
    match: PointCloud,
    initial_guess: Pose3,
    cfg: LoopConfig,
) -> LoopConstraint:
    """Iterative point-to-point registration of the match scan onto the
    query scan.

    The returned relative pose maps match-frame points into the query
    frame. Raises NoConvergence when the final fitness exceeds the
    acceptance threshold or the correspondences collapse. It reads only its
    arguments and writes nothing.
    """
    if len(query) < cfg.min_points or len(match) < cfg.min_points:
        raise NoConvergence("too few points for registration")
    target = query.points
    tree = cKDTree(target)
    pose = initial_guess
    prev_fitness = np.inf
    fitness = np.inf
    corr_dist = max(cfg.coarse_corr_dist, cfg.max_corr_dist)
    for _ in range(cfg.max_icp_iters):
        moved = match.points @ pose.rotation.T + pose.translation
        # the margin keeps a pair at exactly corr_dist, which the bounded
        # query's strict < would drop; mask stays the deciding test
        dists, idx = tree.query(moved, k=1, distance_upper_bound=corr_dist * (1.0 + 1e-9))
        mask = dists <= corr_dist
        if int(mask.sum()) < cfg.min_points:
            raise NoConvergence("correspondence set collapsed")
        fitness = float(np.mean(dists[mask] ** 2))
        step = align_rigid(moved[mask], target[idx[mask]])
        pose = step.compose(pose)
        at_final_radius = corr_dist <= cfg.max_corr_dist
        if at_final_radius and abs(prev_fitness - fitness) <= cfg.icp_tol * max(
            prev_fitness, 1e-12
        ):
            break
        prev_fitness = fitness
        corr_dist = max(cfg.max_corr_dist, corr_dist * cfg.corr_decay)
    if fitness > cfg.accept_threshold:
        raise NoConvergence(f"fitness {fitness:.4f} > {cfg.accept_threshold}")
    scale = min(1.0 / max(fitness, 1e-6), cfg.info_scale_cap)
    return LoopConstraint(relative=pose, fitness=fitness, information=np.eye(6) * scale)


def close_loops(graph: SGraph, query_id: int, cfg: LoopConfig) -> int:
    """Find, register and insert loop-closure factors for one keyframe.

    Acceptance falls off with prior distance, so the candidates are
    registered one after another, nearest first, each from the match pose
    seen from the query as its initial guess, and the first whose
    registration does not converge ends the search: no farther candidate is
    registered, even one that would converge. Candidates without a scan or
    with fewer than `cfg.min_points` points are skipped; they say nothing
    about the registration's reach.

    The accepted factors are appended in candidate order once the search
    has ended, so any other error propagates with nothing inserted. Call it
    once per keyframe: a second call for the same keyframe appends its
    factors again. Returns the number of accepted factors.
    """
    query = graph.keyframes[query_id]
    if query.scan is None:
        return 0
    accepted: list[Factor] = []
    for match_id in find_candidates(graph, query_id, cfg):
        match = graph.keyframes[match_id]
        if match.scan is None or len(match.scan) < cfg.min_points:
            continue
        guess = inverse_compose(query.pose, match.pose)
        try:
            c = register_scans(query.scan, match.scan, guess, cfg)
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

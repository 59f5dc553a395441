"""Evaluation metrics: absolute trajectory error, map RMSE against the
ground-truth floorplan, and start-end pose error."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose3, align_rigid, rot_log
from .simulator import WorldModel


class TooFewPoses(ValueError):
    pass


class EmptyMap(ValueError):
    pass


@dataclass(frozen=True)
class TrajectoryPair:
    estimated: list[tuple[float, Pose3]]
    reference: list[tuple[float, Pose3]]


def associate(
    estimated: list[tuple[float, Pose3]],
    reference: list[tuple[float, Pose3]],
    max_dt: float,
) -> list[tuple[Pose3, Pose3]]:
    """Pair each estimated pose with the nearest-in-time reference pose."""
    if not reference:
        return []
    ref_times = np.array([t for t, _ in reference])
    pairs = []
    for t, pose in estimated:
        i = int(np.argmin(np.abs(ref_times - t)))
        if abs(ref_times[i] - t) <= max_dt:
            pairs.append((pose, reference[i][1]))
    return pairs


def ate_alignment(pair: TrajectoryPair, max_dt: float = 0.25) -> tuple[Pose3, float]:
    """The optimal rigid alignment of the estimate onto the reference, and
    the root-mean-square translational error after it."""
    pairs = associate(pair.estimated, pair.reference, max_dt)
    if len(pairs) < 2:
        raise TooFewPoses(f"only {len(pairs)} associated poses")
    est = np.array([p.translation for p, _ in pairs])
    ref = np.array([r.translation for _, r in pairs])
    T = align_rigid(est, ref)
    aligned = est @ T.rotation.T + T.translation
    return T, float(np.sqrt(np.mean(np.sum((aligned - ref) ** 2, axis=1))))


def ate(pair: TrajectoryPair, max_dt: float = 0.25) -> float:
    """Root-mean-square translational error after optimal rigid alignment."""
    return ate_alignment(pair, max_dt)[1]


def point_to_world_distance(points: np.ndarray, world: WorldModel) -> np.ndarray:
    """Distance from each point to the nearest wall rectangle's plane,
    counted only where the in-plane projection falls inside the rectangle."""
    n = points.shape[0]
    best = np.full(n, np.inf)
    for wall in world.walls:
        a = wall.axis
        u_ax, v_ax = wall.in_plane_axes
        inside = (
            (points[:, u_ax] >= wall.u_min - 1e-9)
            & (points[:, u_ax] <= wall.u_max + 1e-9)
            & (points[:, v_ax] >= wall.v_min - 1e-9)
            & (points[:, v_ax] <= wall.v_max + 1e-9)
        )
        dist = np.abs(points[:, a] - wall.offset)
        best = np.where(inside & (dist < best), dist, best)
    return best


def map_rmse(
    map_points: np.ndarray, world: WorldModel, cutoff: float = 0.5
) -> float:
    """RMSE of map points against the nearest ground-truth plane, ignoring
    points farther than the cutoff (reported alongside the metric)."""
    map_points = np.asarray(map_points, dtype=float).reshape(-1, 3)
    if map_points.shape[0] == 0:
        raise EmptyMap("no map points")
    dist = point_to_world_distance(map_points, world)
    kept = dist[dist <= cutoff]
    if kept.size == 0:
        raise EmptyMap(f"no map points within {cutoff} m of the model")
    return float(np.sqrt(np.mean(kept**2)))


def start_end_error(trajectory: list[tuple[float, Pose3]]) -> tuple[float, float]:
    """Translational (m) and rotational (degrees) error between the first
    and last estimated poses of a run that starts and ends at the same
    ground-truth pose."""
    first = trajectory[0][1]
    last = trajectory[-1][1]
    rel = first.inverse().compose(last)
    t_err = float(np.linalg.norm(rel.translation))
    r_err = math.degrees(float(np.linalg.norm(rot_log(rel.rotation))))
    return t_err, r_err

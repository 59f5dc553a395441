"""End-to-end mapping pipeline: odometry keyframing, plane extraction and
association, topology updates, optional hard loop closure, batch
re-optimization after every new keyframe."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Pose3
from .graph import KeyframePolicy, SGraph
from .loops import LoopConfig, close_loops
from .planes import EmptyCloud, FilterConfig, RansacConfig, TooFewPoints, extract_planes, preprocess
from .simulator import SimStep
from .solver import SolverConfig, SolverReport, optimize
from .topology import RoomCriterionConfig, update_topology


@dataclass(frozen=True)
class SlamConfig:
    keyframe: KeyframePolicy = KeyframePolicy()
    filter: FilterConfig = FilterConfig()
    ransac: RansacConfig = RansacConfig(max_iters=300)
    room: RoomCriterionConfig = RoomCriterionConfig()
    loop: LoopConfig = LoopConfig()
    # LM converges linearly here, so from the third iteration on a step
    # gains 1e-6..1e-13 of the cost; below 1e-6 it only costs time
    solver: SolverConfig = SolverConfig(max_iters=25, rel_tol=1e-6, check_rank=False)
    odom_sigma_t: float = 0.01  # m, per keyframe step
    odom_sigma_r: float = 0.01  # rad, per keyframe step
    plane_sigma_angle: float = 0.02  # rad
    plane_sigma_d: float = 0.02  # m
    topology_sigma: float = 0.1  # m
    min_plane_inlier_count: int = 100  # inliers a kept plane needs; RANSAC searches for no fewer
    enable_topology: bool = True
    enable_loop_closure: bool = False
    optimize_every_keyframe: bool = True

    def odom_information(self) -> np.ndarray:
        return np.diag(
            [1.0 / self.odom_sigma_t**2] * 3 + [1.0 / self.odom_sigma_r**2] * 3
        )

    def plane_information(self) -> np.ndarray:
        return np.diag(
            [
                1.0 / self.plane_sigma_angle**2,
                1.0 / self.plane_sigma_angle**2,
                1.0 / self.plane_sigma_d**2,
            ]
        )

    def topology_information(self) -> float:
        return 1.0 / self.topology_sigma**2


@dataclass
class SlamResult:
    graph: SGraph
    trajectory: list[tuple[float, Pose3]] = field(default_factory=list)
    reports: list[SolverReport] = field(default_factory=list)
    loop_constraints: int = 0


def process_step(step: SimStep, cfg: SlamConfig, result: SlamResult) -> int | None:
    """Feed one sensor step into the result's graph; returns the new keyframe id.

    On a new keyframe the mapped planes, predicted into its sensor frame
    from its odometry-predicted pose, claim their points in the
    preprocessed scan before sequential RANSAC searches the rest
    (`extract_planes`). Each detection, refit from its own points, is then
    associated through the Mahalanobis gate like any other, so a claim
    cannot bypass association; an empty map gives plain sequential RANSAC.
    RANSAC's floor is raised to `cfg.min_plane_inlier_count`, so every
    detection is kept, and a cloud smaller than that is not searched.
    """
    graph = result.graph
    kf_id = graph.maybe_add_keyframe(
        step.odom_pose,
        cfg.keyframe,
        timestamp=step.timestamp,
        odom_information=cfg.odom_information(),
    )
    if kf_id is None:
        return None
    try:
        cloud = preprocess(step.scan, cfg.filter)
    except EmptyCloud:
        cloud = None
    if cloud is not None:
        graph.keyframes[kf_id].scan = cloud  # downsampled copy for loop closure
        ransac = replace(cfg.ransac, min_inliers=max(cfg.ransac.min_inliers, cfg.min_plane_inlier_count))
        try:
            predicted = graph.predict_planes(kf_id) if graph.planes else None
            detections = extract_planes(cloud, ransac, predicted)
        except TooFewPoints:
            detections = []
        seen_ids = [graph.add_plane_observation(det, kf_id, cfg.plane_information()) for det in detections]
        if cfg.enable_topology and seen_ids:
            update_topology(graph, seen_ids, cfg.room, cfg.topology_information())
    if cfg.enable_loop_closure and kf_id > 0:
        result.loop_constraints += close_loops(graph, kf_id, cfg.loop)
    if cfg.optimize_every_keyframe:
        result.reports.append(optimize(graph, cfg.solver))
    return kf_id


def run_slam(steps: list[SimStep], cfg: SlamConfig = SlamConfig()) -> SlamResult:
    """Run the full pipeline over a sensor stream."""
    graph = SGraph()
    result = SlamResult(graph=graph)
    for step in steps:
        process_step(step, cfg, result)
    if not cfg.optimize_every_keyframe and graph.keyframes:
        result.reports.append(optimize(graph, cfg.solver))
    result.trajectory = [
        (graph.keyframes[k].timestamp, graph.keyframes[k].pose)
        for k in sorted(graph.keyframes)
    ]
    return result


def aggregate_map_points(result: SlamResult, steps: list[SimStep]) -> np.ndarray:
    """All stored keyframe scan points transformed by the optimized poses."""
    chunks = []
    for kf_id in sorted(result.graph.keyframes):
        kf = result.graph.keyframes[kf_id]
        if kf.scan is None or len(kf.scan) == 0:
            continue
        chunks.append(kf.scan.points @ kf.pose.rotation.T + kf.pose.translation)
    if not chunks:
        return np.empty((0, 3))
    return np.vstack(chunks)

"""Experiment orchestration: with/without-topology ablation over seeds on
identical sensor streams, plus duplicate-landmark accounting."""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from .geometry import from_minimal, transform_plane
from .metrics import TrajectoryPair, ate
from .pipeline import SlamConfig, SlamResult, run_slam
from .simulator import (
    LayoutSpec,
    NoiseSpec,
    ScanPattern,
    SimStep,
    TrajectorySpec,
    WorldModel,
    generate_world,
    simulate_run,
)


def stream_digest(steps: list[SimStep]) -> str:
    """Stable digest of a sensor stream (poses and scans)."""
    h = hashlib.sha256()
    for s in steps:
        h.update(np.float64(s.timestamp).tobytes())
        h.update(s.gt_pose.rotation.tobytes())
        h.update(s.gt_pose.translation.tobytes())
        h.update(s.odom_pose.rotation.tobytes())
        h.update(s.odom_pose.translation.tobytes())
        h.update(s.scan.points.tobytes())
    return h.hexdigest()


DUPLICATE_DIST_TOL = 0.5  # m, between a landmark's and a wall plane's signed offsets
DUPLICATE_ANGLE_TOL = 0.17  # rad, between a landmark's normal and an axis


def duplicate_plane_count(result: SlamResult, world: WorldModel) -> int:
    """Landmarks in excess of one per matched ground-truth wall plane.

    Each landmark is moved into the world frame by keyframe 0's odometry
    pose, where the map frame is anchored. A landmark whose normal lies
    within `DUPLICATE_ANGLE_TOL` of an axis matches the wall plane of that
    axis nearest in signed offset, if closer than `DUPLICATE_DIST_TOL`. A
    wall split by a door, or shared by two rectangles, is one plane."""
    origin = result.graph.keyframes[0].odom_pose
    gt = {(w.axis, round(w.offset, 9)) for w in world.walls}
    matches = Counter()
    for lm in result.graph.planes.values():
        plane = transform_plane(origin, from_minimal(lm.params), to_sensor=False)
        axis = int(np.argmax(np.abs(plane.normal)))
        if abs(plane.normal[axis]) < np.cos(DUPLICATE_ANGLE_TOL):
            continue
        offset = math.copysign(plane.distance, plane.normal[axis])
        near = [(abs(offset - o), (a, o)) for a, o in gt if a == axis]
        err, key = min(near, default=(DUPLICATE_DIST_TOL, None))
        if err < DUPLICATE_DIST_TOL:
            matches[key] += 1
    return sum(c - 1 for c in matches.values())


@dataclass
class RunMetrics:
    ate: float
    n_planes: int
    n_duplicates: int
    n_rooms: int
    n_corridors: int
    final_cost: float


@dataclass
class AblationReport:
    seeds: list[int]
    digests: dict[int, str]
    full: dict[int, RunMetrics]
    without_topology: dict[int, RunMetrics]

    def _runs(self, which: str) -> dict[int, RunMetrics]:
        """The runs of "full" or "without"; any other name raises KeyError."""
        return {"full": self.full, "without": self.without_topology}[which]

    def mean_ate(self, which: str) -> float:
        return float(np.mean([m.ate for m in self._runs(which).values()]))

    def mean_duplicates(self, which: str) -> float:
        return float(np.mean([m.n_duplicates for m in self._runs(which).values()]))

    @property
    def improvement_confirmed(self) -> bool:
        return (
            self.mean_ate("full") < self.mean_ate("without")
            and self.mean_duplicates("full") <= self.mean_duplicates("without")
        )

    def to_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "stream_digests": {str(k): v for k, v in self.digests.items()},
            "full": {str(k): asdict(m) for k, m in self.full.items()},
            "without_topology": {str(k): asdict(m) for k, m in self.without_topology.items()},
            "mean_ate_full": self.mean_ate("full"),
            "mean_ate_without_topology": self.mean_ate("without"),
            "mean_duplicates_full": self.mean_duplicates("full"),
            "mean_duplicates_without_topology": self.mean_duplicates("without"),
            "improvement_confirmed": self.improvement_confirmed,
        }


def evaluate_run(result: SlamResult, steps: list[SimStep], world: WorldModel) -> RunMetrics:
    reference = [(s.timestamp, s.gt_pose) for s in steps]
    pair = TrajectoryPair(estimated=result.trajectory, reference=reference)
    return RunMetrics(
        ate=ate(pair),
        n_planes=len(result.graph.planes),
        n_duplicates=duplicate_plane_count(result, world),
        n_rooms=len(result.graph.rooms),
        n_corridors=len(result.graph.corridors),
        final_cost=result.reports[-1].final_cost if result.reports else float("nan"),
    )


def run_ablation(
    layout: LayoutSpec,
    traj: TrajectorySpec,
    noise: NoiseSpec,
    seeds: list[int],
    cfg: SlamConfig = SlamConfig(),
    pattern: ScanPattern = ScanPattern(),
) -> AblationReport:
    """Run the full and topology-disabled pipelines on identical streams
    for every seed."""
    world = generate_world(layout)
    report = AblationReport(seeds=list(seeds), digests={}, full={}, without_topology={})
    for seed in seeds:
        steps = simulate_run(world, traj, replace(noise, seed=seed), pattern)
        report.digests[seed] = stream_digest(steps)
        full_cfg = replace(cfg, enable_topology=True)
        off_cfg = replace(cfg, enable_topology=False)
        res_full = run_slam(steps, full_cfg)
        res_off = run_slam(steps, off_cfg)
        report.full[seed] = evaluate_run(res_full, steps, world)
        report.without_topology[seed] = evaluate_run(res_off, steps, world)
    return report

"""Workload definitions: a fixed world, trajectory, noise model, scan pattern
and pipeline configuration per workload. Only the noise seeds come from the
command line (`Workload.noise_seeds`), so the same seed always gives the
same sensor streams."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from sgraph.pipeline import SlamConfig
from sgraph.simulator import (
    LayoutSpec,
    NoiseSpec,
    RectSpec,
    ScanPattern,
    SimStep,
    TrajectorySpec,
    WorldModel,
    default_multi_room_layout,
    generate_world,
    perimeter_waypoints,
    simulate_run,
)
from sgraph.solver import SolverConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layout: LayoutSpec
    traj: TrajectorySpec
    noise: NoiseSpec  # the seed field is replaced by the run's --seed
    pattern: ScanPattern
    cfg: SlamConfig
    # keyframes the stream nominally yields; fixes the tail percentile so
    # every run of the workload reports the same percentile
    nominal_keyframes: int
    setup_repeats: int
    # streams per run, each from its own noise seed and replayed at least
    # once: the seed changes the solver's work (rooms4-online seeds 0-5 make
    # 149k-221k factor evaluations), so one stream's time swings with its
    # seed, and the median over several streams does not
    streams: int

    @property
    def tail_pct(self) -> int:
        """Highest whole percentile with at least ten samples beyond it."""
        return max(50, math.floor(100.0 * (self.nominal_keyframes - 10) / self.nominal_keyframes))

    def noise_seeds(self, seed: int) -> list[int]:
        """Noise seeds of the run seed's streams; seed n starts with noise
        seed streams*n, so run seeds never share a stream and run seed 0
        replays the noise-seed-0 stream first."""
        return [self.streams * seed + j for j in range(self.streams)]

    def make_world(self) -> WorldModel:
        return generate_world(self.layout)

    def make_stream(self, world: WorldModel, seed: int) -> list[SimStep]:
        return simulate_run(world, self.traj, replace(self.noise, seed=seed), self.pattern)


def _rooms(n_rooms: int) -> dict:
    """Layout and trajectory through the centre of every room and corridor."""
    layout = default_multi_room_layout(n_rooms)
    return {"layout": layout, "traj": TrajectorySpec(waypoints=perimeter_waypoints(list(layout.rects)))}


# noise and odometry model of the topology-ablation acceptance criterion
_ABLATION_NOISE = NoiseSpec(trans_drift=0.02, rot_drift=0.005, range_sigma=0.01)


# the single room of the hard-loop-closure acceptance criterion, with
# odometry and loop factors only
def _square_room(half: float) -> LayoutSpec:
    return LayoutSpec(rects=(RectSpec(-half, half, -half, half, kind="room"),), wall_height=3.0)


def _square_traj(half: float) -> TrajectorySpec:
    """One loop, then the first side again and back along it.

    A double loop puts the median keyframe on the boundary between
    keyframes with and without loop candidates, so the median latency
    jumps between the two regimes from seed to seed. With about a third of
    the path revisited, the median stays among keyframes without
    candidates and the tail among the loop-closing ones.
    """
    corners = ((-half, -half, 0.0), (half, -half, 0.0), (half, half, 0.0), (-half, half, 0.0))
    return TrajectorySpec(waypoints=corners + corners[:2])


_SQUARE_CFG = SlamConfig(
    enable_topology=False,
    enable_loop_closure=True,
    min_plane_inlier_count=10**9,
    odom_sigma_t=0.055,
    odom_sigma_r=0.002,
    solver=SolverConfig(max_iters=25, rel_tol=1e-10, check_rank=False),
)
_SQUARE_NOISE = NoiseSpec(trans_drift=0.055, rot_drift=0.002, range_sigma=0.01)


def _square_pattern(n_rings: int, n_azimuth: int) -> ScanPattern:
    return ScanPattern(
        n_rings=n_rings, n_azimuth=n_azimuth, elevation_min=-0.6, elevation_max=0.6, max_range=30.0
    )


WORKLOADS: dict[str, Workload] = {
    "rooms4-online": Workload(
        name="rooms4-online",
        why="4 rooms, 3 corridors, solve after every keyframe: the solver does most of the work",
        **_rooms(4),
        noise=_ABLATION_NOISE,
        pattern=ScanPattern(max_range=9.0),
        cfg=SlamConfig(),
        nominal_keyframes=39,
        setup_repeats=2,
        streams=3,
    ),
    "square-loop": Workload(
        name="square-loop",
        why="one room, a loop and a revisited side, loop closure on, poses only: loop closure does the work",
        layout=_square_room(7.0),
        traj=_square_traj(5.0),
        noise=_SQUARE_NOISE,
        pattern=_square_pattern(8, 180),
        cfg=_SQUARE_CFG,
        nominal_keyframes=46,
        setup_repeats=3,
        streams=6,
    ),
}


# shrunk worlds that run every check and the traced run in seconds
SMOKE: dict[str, Workload] = {
    "rooms4-online": replace(
        WORKLOADS["rooms4-online"],
        **_rooms(2),
        pattern=ScanPattern(n_rings=8, n_azimuth=180, max_range=9.0),
        nominal_keyframes=12,
        setup_repeats=2,
        streams=2,
    ),
    "square-loop": replace(
        WORKLOADS["square-loop"],
        layout=_square_room(4.0),
        traj=_square_traj(2.5),
        pattern=_square_pattern(6, 120),
        nominal_keyframes=20,
        setup_repeats=2,
        streams=2,
    ),
}

"""Deterministic synthetic indoor worlds: floorplan generation, ground-truth
trajectories, drifting odometry and ray-cast LiDAR scans."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import PlaneClass, Pose3, rot_exp, wrap_angle
from .planes import PointCloud


class InvalidLayout(ValueError):
    """Overlapping rectangles or otherwise inconsistent floorplan."""


class InvalidSpec(ValueError):
    """A trajectory or scan pattern field outside its domain; the message
    names the field."""


@dataclass(frozen=True)
class RectSpec:
    """Axis-aligned floorplan rectangle (a room or a corridor)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    kind: str = "room"  # "room" | "corridor"
    name: str = ""

    @property
    def bounds(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(min, max) along x, then along y."""
        return (self.x_min, self.x_max), (self.y_min, self.y_max)

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


@dataclass(frozen=True)
class LayoutSpec:
    rects: tuple[RectSpec, ...]
    wall_height: float = 2.5


@dataclass(frozen=True)
class WallRect:
    """Finite rectangle on an axis-aligned plane.

    axis is the index of the plane-normal axis (0=x, 1=y, 2=z); offset is
    the plane coordinate along that axis; (u, v) bound the two remaining
    axes in ascending index order.
    """

    axis: int
    offset: float
    u_min: float
    u_max: float
    v_min: float
    v_max: float

    @property
    def in_plane_axes(self) -> tuple[int, int]:
        """The (u, v) axes: the two that are not the normal axis, ascending."""
        u, v = (i for i in range(3) if i != self.axis)
        return u, v


@dataclass(frozen=True)
class RoomAnnotation:
    center: np.ndarray  # (cx, cy)
    widths: np.ndarray  # (wx, wy)


@dataclass(frozen=True)
class CorridorAnnotation:
    axis: PlaneClass  # class of the wall pair
    center: np.ndarray  # (cx, cy)
    width: float


@dataclass(frozen=True)
class WorldModel:
    walls: tuple[WallRect, ...]
    rooms: tuple[RoomAnnotation, ...]
    corridors: tuple[CorridorAnnotation, ...]
    wall_height: float

    @cached_property
    def _wall_table(self) -> _WallTable:
        """The walls packed for `raycast`, on the world's first scan."""
        return _WallTable.of(self.walls)


@dataclass(frozen=True)
class TrajectorySpec:
    waypoints: tuple[tuple[float, float, float], ...]  # (x, y, yaw)
    speed: float = 1.0  # m/s
    scan_rate: float = 2.0  # Hz
    loops: int = 1
    sensor_height: float = 1.0


@dataclass(frozen=True)
class NoiseSpec:
    trans_drift: float = 0.0  # m / sqrt(m) translation random walk
    rot_drift: float = 0.0  # rad / sqrt(rad) rotation random walk
    range_sigma: float = 0.0  # m, per-return range noise
    seed: int = 0


@dataclass(frozen=True)
class ScanPattern:
    n_rings: int = 16
    n_azimuth: int = 360
    elevation_min: float = math.radians(-15.0)
    elevation_max: float = math.radians(15.0)
    max_range: float = 50.0


@dataclass(frozen=True)
class SimStep:
    timestamp: float
    gt_pose: Pose3
    odom_pose: Pose3
    scan: PointCloud


_EPS = 1e-9


def _wall_spans(bounds, others, axis: int, side: int) -> list[tuple[float, float]]:
    """Spans, along the other axis, of a rectangle's wall at
    `bounds[axis][side]`: its whole edge less the door openings, the spans
    it shares with a neighbour's opposite edge. `bounds` and `others` are
    `RectSpec.bounds` of the rectangle and of its neighbours."""
    edge = bounds[axis][side]
    lo, hi = bounds[1 - axis]
    openings = sorted(
        (max(lo, o[1 - axis][0]), min(hi, o[1 - axis][1]))
        for o in others
        if abs(o[axis][1 - side] - edge) < _EPS
    )
    spans = []
    cur = lo
    for a, b in openings:
        if b - a <= _EPS:  # the edges meet at a corner or not at all
            continue
        if a > cur + _EPS:
            spans.append((cur, a))
        cur = max(cur, b)
    if hi > cur + _EPS:
        spans.append((cur, hi))
    return spans


def generate_world(layout: LayoutSpec) -> WorldModel:
    """Build walls, floor/ceiling and ground-truth annotations from a
    rectangle floorplan. Shared boundaries become door openings.

    Each rectangle has a wall at both ends of both axes, in the order x low,
    x high, y low, y high. A corridor's walls face across its shorter side
    (x on a tie) and its width is that side. Raises InvalidLayout for no
    rectangle, a wall height that is not a finite number above 0, or a
    rectangle of unknown kind, with a bound that is not finite, of no area
    or overlapping another."""
    rects = list(layout.rects)
    if not rects:
        raise InvalidLayout("layout needs at least one rectangle")
    if not (math.isfinite(layout.wall_height) and layout.wall_height > 0.0):
        raise InvalidLayout(f"wall_height must be finite and > 0, not {layout.wall_height!r}")
    bounds = [r.bounds for r in rects]
    for i, a in enumerate(rects):
        if a.kind not in ("room", "corridor"):
            raise InvalidLayout(f"rectangle {a} has kind {a.kind!r}, not 'room' or 'corridor'")
        if not np.isfinite(bounds[i]).all():
            raise InvalidLayout(f"rectangle {a} has a bound that is not finite")
        if any(hi <= lo for lo, hi in bounds[i]):
            raise InvalidLayout(f"degenerate rectangle {a}")
        for b in rects[i + 1 :]:
            pairs = zip(bounds[i], b.bounds)
            if all(lo < b_hi - _EPS and b_lo < hi - _EPS for (lo, hi), (b_lo, b_hi) in pairs):
                raise InvalidLayout(f"overlapping rectangles {a} and {b}")

    h = layout.wall_height
    walls = []
    for i, rb in enumerate(bounds):
        others = bounds[:i] + bounds[i + 1 :]
        walls += [
            WallRect(axis, rb[axis][side], lo, hi, 0.0, h)
            for axis in (0, 1)
            for side in (0, 1)
            for lo, hi in _wall_spans(rb, others, axis, side)
        ]
    walls += [WallRect(2, z, *rb[0], *rb[1]) for rb in bounds for z in (0.0, h)]

    rooms = []
    corridors = []
    for rect, rb in zip(rects, bounds):
        widths = [hi - lo for lo, hi in rb]
        if rect.kind == "room":
            rooms.append(RoomAnnotation(center=np.array(rect.center), widths=np.array(widths)))
        else:
            axis = int(widths[1] < widths[0])  # across the shorter side, x on a tie
            corridors.append(
                CorridorAnnotation(list(PlaneClass)[axis], np.array(rect.center), widths[axis])
            )
    return WorldModel(tuple(walls), tuple(rooms), tuple(corridors), h)


def ray_directions(pattern: ScanPattern) -> np.ndarray:
    """Unit ray directions in the sensor frame, shape (rings*azimuths, 3)."""
    elevations = np.linspace(pattern.elevation_min, pattern.elevation_max, pattern.n_rings)
    azimuths = np.arange(pattern.n_azimuth) * (2.0 * math.pi / pattern.n_azimuth)
    el, az = np.meshgrid(elevations, azimuths, indexing="ij")
    ce = np.cos(el)
    return np.stack([ce * np.cos(az), ce * np.sin(az), np.sin(el)], axis=-1).reshape(-1, 3)


# (wall, ray) pairs per nearest-first batch of `_WallTable.cast`, so that a
# batch's float temporaries are at most 128 KiB, glibc's default mmap
# threshold: larger ones are mapped and paged in afresh on every batch,
# which made 4-wall batches of a 5 760-ray scan slower than 2-wall ones
_BATCH_PAIRS = 16384
# a margin above any difference between a hit's ray parameter and its
# distance to the sensor: |dir| is 1 to within a few ulp, and a hit may lie
# up to the 1e-12 inside tolerance outside its wall
_RANGE_MARGIN = 1e-6


@dataclass(frozen=True)
class _WallTable:
    """A world's walls as arrays, one row per wall: the normal axis and
    offset, the in-plane (u, v) axes, and the (u, v) bounds widened by the
    1e-12 inside tolerance of a hit."""

    axis: np.ndarray  # (W,)
    offset: np.ndarray  # (W,)
    in_plane: np.ndarray  # (W, 2)
    lo: np.ndarray  # (W, 2)
    hi: np.ndarray  # (W, 2)

    @classmethod
    def of(cls, walls: tuple[WallRect, ...]) -> _WallTable:
        return cls(
            axis=np.array([w.axis for w in walls], dtype=np.intp),
            offset=np.array([w.offset for w in walls], dtype=float),
            in_plane=np.array([w.in_plane_axes for w in walls], dtype=np.intp).reshape(-1, 2),
            lo=np.array([(w.u_min, w.v_min) for w in walls], dtype=float).reshape(-1, 2) - 1e-12,
            hi=np.array([(w.u_max, w.v_max) for w in walls], dtype=float).reshape(-1, 2) + 1e-12,
        )

    def cast(self, pose: Pose3, max_range: float, dirs_sensor: np.ndarray) -> np.ndarray:
        """`raycast` against these walls."""
        dirs = dirs_sensor @ pose.rotation.T
        origin = pose.translation
        # each wall's distance to the sensor: to its nearest point
        in_plane = origin[self.in_plane]
        off_plane = in_plane - np.clip(in_plane, self.lo, self.hi)
        dist = np.sqrt((self.offset - origin[self.axis]) ** 2 + (off_plane**2).sum(axis=1))
        near = np.flatnonzero(dist <= max_range + _RANGE_MARGIN)
        order = near[np.argsort(dist[near], kind="stable")]

        best_t = np.full(dirs.shape[0], np.inf)
        rays = np.arange(dirs.shape[0])
        d = np.ascontiguousarray(dirs.T)  # (3, rays): each wall's loop runs along the rays
        n_walls = max(1, _BATCH_PAIRS // dirs.shape[0])
        for start in range(0, order.size, n_walls):
            batch = order[start : start + n_walls]
            # no wall from here on hits nearer than this batch's nearest
            live = best_t[rays] >= dist[batch[0]] - _RANGE_MARGIN
            if not live.all():
                rays, d = rays[live], d.compress(live, axis=1)
                if rays.size == 0:
                    break
            axis = self.axis[batch]
            u_ax, v_ax = self.in_plane[batch].T
            lo, hi = self.lo[batch], self.hi[batch]
            # in place where it can be: fewer (walls x rays) temporaries
            da = d[axis]  # (walls, rays)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t = (self.offset[batch] - origin[axis])[:, None] / da
                hits = np.abs(da, out=da) > 1e-12
                hits &= t > 1e-9
                for ax, w_lo, w_hi in ((u_ax, lo[:, :1], hi[:, :1]), (v_ax, lo[:, 1:], hi[:, 1:])):
                    w = d[ax]
                    w *= t
                    w += origin[ax][:, None]  # d * t + origin == origin + t * d, bit for bit
                    hits &= w >= w_lo
                    hits &= w <= w_hi
            best_t[rays] = np.minimum(best_t[rays], t.min(axis=0, initial=np.inf, where=hits))
        hit = np.isfinite(best_t) & (best_t <= max_range)
        return dirs_sensor[hit] * best_t[hit, None]


def raycast(
    world: WorldModel, pose: Pose3, pattern: ScanPattern, dirs_sensor: np.ndarray | None = None
) -> np.ndarray:
    """Cast the scan pattern against the world's wall rectangles.

    Returns hit points in the sensor frame (pre-noise, exactly on the hit
    planes): each ray stops at its nearest wall, and misses and hits beyond
    `pattern.max_range` are dropped. `dirs_sensor` is
    `ray_directions(pattern)` for a caller that casts the same pattern many
    times.

    Only the walls that can still change a ray's nearest hit are
    intersected. A wall whose nearest point is beyond max_range + 1e-6 is
    culled. The rest are visited nearest-first, a few at a time as
    (walls x rays) arrays of about `_BATCH_PAIRS` entries, and before each
    batch the rays whose hit is nearer than the batch's nearest wall less
    1e-6 are dropped. A ray's parameter at a hit differs from the hit's distance to
    the sensor by far less than 1e-6, so a skipped (wall, ray) pair could
    never have been the nearest hit within range. Each pair that is kept
    goes through the same float operations as a per-wall loop over every
    wall, and the minimum does not depend on order, so the scan is the
    same to the bit.

    The walls are packed into a table of arrays once per world, on its
    first scan.
    """
    if dirs_sensor is None:
        dirs_sensor = ray_directions(pattern)
    return world._wall_table.cast(pose, pattern.max_range, dirs_sensor)


def _interp_poses(traj: TrajectorySpec) -> tuple[np.ndarray, list[Pose3]]:
    wps = list(traj.waypoints) * traj.loops
    wps.append(traj.waypoints[0])
    pts = np.array([[w[0], w[1]] for w in wps])
    yaws = np.array([w[2] for w in wps])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])
    if total <= 0.0:
        raise InvalidSpec("TrajectorySpec.waypoints make a trajectory of zero length")
    dt = 1.0 / traj.scan_rate
    n_steps = int(math.floor(total / traj.speed / dt)) + 1
    times = np.arange(n_steps) * dt
    poses = []
    for t in times:
        s = min(t * traj.speed, total)
        i = int(np.searchsorted(cum, s, side="right")) - 1
        i = min(i, len(seg) - 1)
        alpha = 0.0 if seg[i] <= 0 else (s - cum[i]) / seg[i]
        xy = pts[i] * (1 - alpha) + pts[i + 1] * alpha
        dyaw = wrap_angle(yaws[i + 1] - yaws[i])
        yaw = yaws[i] + alpha * dyaw
        poses.append(Pose3.from_xyz_yaw(xy[0], xy[1], traj.sensor_height, yaw))
    return times, poses


def _check_specs(traj: TrajectorySpec, noise: NoiseSpec, pattern: ScanPattern) -> None:
    if not traj.waypoints:
        raise InvalidSpec("TrajectorySpec.waypoints is empty")
    for name, value in (("speed", traj.speed), ("scan_rate", traj.scan_rate)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidSpec(f"TrajectorySpec.{name} must be finite and > 0, not {value!r}")
    if not math.isfinite(traj.sensor_height):
        raise InvalidSpec(f"TrajectorySpec.sensor_height must be finite, not {traj.sensor_height!r}")
    for name in ("trans_drift", "rot_drift", "range_sigma"):
        value = getattr(noise, name)
        if not (math.isfinite(value) and value >= 0.0):
            raise InvalidSpec(f"NoiseSpec.{name} must be finite and >= 0, not {value!r}")
    counts = (
        ("TrajectorySpec.loops", traj.loops),
        ("ScanPattern.n_rings", pattern.n_rings),
        ("ScanPattern.n_azimuth", pattern.n_azimuth),
    )
    for name, value in counts:
        if value < 1:
            raise InvalidSpec(f"{name} must be >= 1, not {value!r}")
    if not pattern.max_range > 0.0:  # NaN fails too
        raise InvalidSpec(f"ScanPattern.max_range must be > 0, not {pattern.max_range!r}")


def simulate_run(
    world: WorldModel,
    traj: TrajectorySpec,
    noise: NoiseSpec,
    pattern: ScanPattern = ScanPattern(),
) -> list[SimStep]:
    """Ground-truth poses, drifting odometry and noisy scans along the
    trajectory. Fully deterministic given the noise seed.

    Raises InvalidSpec for a speed or scan rate that is not a finite number
    above 0, a sensor height that is not finite, a drift or range noise
    that is not a finite number of at least 0, a loop, ring or azimuth
    count below 1, a max_range that is not above 0, or waypoints that make
    no trajectory of positive length."""
    _check_specs(traj, noise, pattern)
    rng = np.random.default_rng(noise.seed)
    times, gt_poses = _interp_poses(traj)
    dirs_sensor = ray_directions(pattern)
    steps: list[SimStep] = []
    odom = gt_poses[0]
    prev_gt = gt_poses[0]
    for i, (t, gt) in enumerate(zip(times, gt_poses)):
        if i > 0:
            rel = prev_gt.inverse().compose(gt)
            length = float(np.linalg.norm(rel.translation))
            angle = float(np.linalg.norm(rel.log()[3:6]))
            sig_t = noise.trans_drift * math.sqrt(max(length, 0.0))
            sig_r = noise.rot_drift * math.sqrt(max(angle, 0.0))
            eps = np.concatenate(
                [rng.normal(0.0, 1.0, 3) * sig_t, rng.normal(0.0, 1.0, 3) * sig_r]
            )
            noisy_rel = rel.compose(Pose3(rot_exp(eps[3:6]), eps[0:3]))
            odom = odom.compose(noisy_rel)
            prev_gt = gt
        pts = raycast(world, gt, pattern, dirs_sensor)
        if noise.range_sigma > 0.0 and pts.shape[0] > 0:
            ranges = np.linalg.norm(pts, axis=1, keepdims=True)
            noisy_ranges = ranges + rng.normal(0.0, noise.range_sigma, ranges.shape)
            pts = pts / ranges * noisy_ranges
        steps.append(
            SimStep(
                timestamp=float(t),
                gt_pose=gt,
                odom_pose=odom,
                scan=PointCloud(pts, float(t)),
            )
        )
    return steps


def perimeter_waypoints(rects: list[RectSpec]) -> tuple[tuple[float, float, float], ...]:
    """Waypoints visiting the center of each rectangle in order."""
    wps = []
    for r in rects:
        cx, cy = r.center
        wps.append((cx, cy, 0.0))
    return tuple(wps)


def default_multi_room_layout(n_rooms: int = 4) -> LayoutSpec:
    """A row of rooms of staggered sizes joined by narrow corridors.

    Staggered depths keep walls of different rooms non-coplanar so each
    room has its own four wall planes.
    """
    rects: list[RectSpec] = []
    x = 0.0

    def _y0(i: int) -> float:
        # alternate rooms up/down by more than a typical door width so
        # walls of neighbouring rooms are clearly non-collinear
        return -1.6 * (i % 2) - 0.9 * (i % 4)

    for i in range(n_rooms):
        w = 5.0 + 0.8 * (i % 3)
        depth = 6.0 + 0.9 * ((i + 1) % 3)
        y0 = _y0(i)
        rects.append(
            RectSpec(x, x + w, y0, y0 + depth, kind="room", name=f"room{i}")
        )
        x += w
        if i < n_rooms - 1:
            cy0 = max(y0, _y0(i + 1)) + 1.5
            rects.append(RectSpec(x, x + 2.2, cy0, cy0 + 1.8, kind="corridor", name=f"corr{i}"))
            x += 2.2
    return LayoutSpec(rects=tuple(rects))

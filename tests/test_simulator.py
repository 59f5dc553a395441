"""World generation, raycasting, odometry noise model and determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sgraph.geometry import PlaneClass, Pose3, rot_exp
from sgraph.simulator import (
    InvalidLayout,
    InvalidSpec,
    LayoutSpec,
    NoiseSpec,
    RectSpec,
    ScanPattern,
    TrajectorySpec,
    default_multi_room_layout,
    generate_world,
    perimeter_waypoints,
    ray_directions,
    raycast,
    simulate_run,
)

SINGLE_ROOM = LayoutSpec(
    rects=(RectSpec(-3.0, 3.0, -2.0, 2.0, kind="room"),), wall_height=2.5
)


def single_room_world():
    return generate_world(SINGLE_ROOM)


class TestGenerateWorld:
    def test_single_room_counts(self):
        world = single_room_world()
        vertical = [w for w in world.walls if w.axis in (0, 1)]
        horizontal = [w for w in world.walls if w.axis == 2]
        assert len(vertical) == 4
        assert len(horizontal) == 2  # floor + ceiling
        assert len(world.rooms) == 1
        assert len(world.corridors) == 0

    def test_room_annotation_matches_rect(self):
        world = single_room_world()
        assert np.allclose(world.rooms[0].center, [0.0, 0.0])
        assert np.allclose(world.rooms[0].widths, [6.0, 4.0])

    def test_corridor_annotation_axis(self):
        # the walls face across the shorter side, x on a tie, and the
        # width is that side
        cases = [
            (RectSpec(0.0, 2.0, 0.0, 8.0, kind="corridor"), PlaneClass.X_VERTICAL, 2.0),
            (RectSpec(-1.0, 7.0, 2.0, 3.5, kind="corridor"), PlaneClass.Y_VERTICAL, 1.5),
            (RectSpec(1.0, 3.0, -1.0, 1.0, kind="corridor"), PlaneClass.X_VERTICAL, 2.0),
        ]
        for rect, axis, width in cases:
            world = generate_world(LayoutSpec(rects=(rect,), wall_height=2.5))
            assert world.rooms == () and len(world.corridors) == 1, rect
            assert world.corridors[0].axis is axis, rect
            assert world.corridors[0].width == pytest.approx(width), rect
            assert np.array_equal(world.corridors[0].center, rect.center), rect

    def test_shared_boundary_becomes_opening(self):
        room = RectSpec(0.0, 4.0, 0.0, 4.0, kind="room")
        cases = [
            # the x = 4 wall of the left room is split around y in [1, 3];
            # the right room's whole edge is the door
            (RectSpec(4.0, 8.0, 1.0, 3.0, kind="room"), 0, [(0.0, 1.0), (3.0, 4.0)]),
            # the same door seen from a right room that reaches past it
            (RectSpec(4.0, 8.0, 1.0, 6.0, kind="room"), 0, [(0.0, 1.0), (4.0, 6.0)]),
            # a door on a y edge, to a corridor that overhangs the room
            (RectSpec(-1.0, 3.0, 4.0, 5.5, kind="corridor"), 1, [(-1.0, 0.0), (3.0, 4.0)]),
            # a rectangle on the edge's line that does not touch it cuts nothing
            (RectSpec(4.0, 8.0, 5.0, 7.0, kind="room"), 0, [(0.0, 4.0), (5.0, 7.0)]),
        ]
        for neighbour, axis, spans in cases:
            world = generate_world(LayoutSpec(rects=(room, neighbour)))
            segs = [w for w in world.walls if w.axis == axis and abs(w.offset - 4.0) < 1e-9]
            # the walls of both rectangles on that plane; none in the doorway
            assert sorted((w.u_min, w.u_max) for w in segs) == spans, neighbour

    def test_overlapping_rects_rejected(self):
        layout = LayoutSpec(
            rects=(
                RectSpec(0.0, 4.0, 0.0, 4.0),
                RectSpec(2.0, 6.0, 2.0, 6.0),
            )
        )
        with pytest.raises(InvalidLayout):
            generate_world(layout)

    def test_unknown_kind_rejected(self):
        layout = LayoutSpec(rects=(RectSpec(0.0, 4.0, 0.0, 4.0, kind="Room", name="hall"),))
        with pytest.raises(InvalidLayout, match="name='hall'.*'Room'"):
            generate_world(layout)

    def test_degenerate_rect_rejected(self):
        with pytest.raises(InvalidLayout):
            generate_world(LayoutSpec(rects=(RectSpec(0.0, 0.0, 0.0, 4.0),)))

    @pytest.mark.parametrize(
        "rect",
        [RectSpec(0.0, math.nan, 0.0, 4.0), RectSpec(-math.inf, 4.0, 0.0, 4.0), RectSpec(0.0, 4.0, 0.0, math.inf)],
    )
    def test_non_finite_bound_rejected(self, rect):
        # NaN passes the `hi <= lo` test
        with pytest.raises(InvalidLayout, match="not finite"):
            generate_world(LayoutSpec(rects=(rect,)))

    @pytest.mark.parametrize("height", [0.0, -2.5, math.nan, math.inf])
    def test_wall_height_not_finite_and_positive_rejected(self, height):
        with pytest.raises(InvalidLayout, match="wall_height"):
            generate_world(LayoutSpec(rects=(RectSpec(0.0, 4.0, 0.0, 4.0),), wall_height=height))

    def test_default_layout_has_rooms_and_corridor(self):
        layout = default_multi_room_layout(4)
        world = generate_world(layout)
        assert len(world.rooms) >= 4
        assert len(world.corridors) >= 1


class TestRaycast:
    def test_points_lie_on_world_planes(self):
        world = single_room_world()
        pose = Pose3.from_xyz_yaw(0.5, -0.3, 1.0, 0.4)
        pts = raycast(world, pose, ScanPattern(n_rings=8, n_azimuth=90))
        assert pts.shape[0] > 0
        world_pts = pts @ pose.rotation.T + pose.translation
        dmin = np.full(world_pts.shape[0], np.inf)
        for w in world.walls:
            d = np.abs(world_pts[:, w.axis] - w.offset)
            dmin = np.minimum(dmin, d)
        assert float(dmin.max()) < 1e-9

    def test_ranges_bounded_by_room(self):
        world = single_room_world()
        pts = raycast(world, Pose3.from_xyz_yaw(0, 0, 1.0, 0.0), ScanPattern())
        ranges = np.linalg.norm(pts, axis=1)
        # farthest possible return is the opposite room corner
        assert float(ranges.max()) <= math.sqrt(3.0**2 + 2.0**2 + 1.5**2) + 1e-6

    def test_max_range_cutoff(self):
        world = single_room_world()
        pts = raycast(
            world, Pose3.from_xyz_yaw(0, 0, 1.0, 0.0), ScanPattern(max_range=2.5)
        )
        assert pts.shape[0] > 0
        assert float(np.linalg.norm(pts, axis=1).max()) <= 2.5 + 1e-9


def _reference_raycast(
    world, pose: Pose3, pattern: ScanPattern, dirs_sensor: np.ndarray | None = None
) -> np.ndarray:
    """Every ray against every wall, one wall at a time: the plain loop that
    `raycast` must match to the bit."""
    if dirs_sensor is None:
        dirs_sensor = ray_directions(pattern)
    dirs = dirs_sensor @ pose.rotation.T
    origin = pose.translation
    n_rays = dirs.shape[0]
    best_t = np.full(n_rays, np.inf)
    for wall in world.walls:
        a = wall.axis
        u_ax, v_ax = wall.in_plane_axes
        da = dirs[:, a]
        valid = np.abs(da) > 1e-12
        t = np.full(n_rays, np.inf)
        t[valid] = (wall.offset - origin[a]) / da[valid]
        t[t <= 1e-9] = np.inf
        with np.errstate(invalid="ignore"):
            u = origin[u_ax] + t * dirs[:, u_ax]
            v = origin[v_ax] + t * dirs[:, v_ax]
        inside = (
            (u >= wall.u_min - 1e-12)
            & (u <= wall.u_max + 1e-12)
            & (v >= wall.v_min - 1e-12)
            & (v <= wall.v_max + 1e-12)
        )
        t[~inside] = np.inf
        best_t = np.minimum(best_t, t)
    hit = np.isfinite(best_t) & (best_t <= pattern.max_range)
    return dirs_sensor[hit] * best_t[hit, None]


def _rooms_world_and_poses(n_rooms: int):
    """The world of `default_multi_room_layout(n_rooms)` and the ground-truth
    poses of the stream through its rooms."""
    layout = default_multi_room_layout(n_rooms)
    traj = TrajectorySpec(waypoints=perimeter_waypoints(list(layout.rects)))
    world = generate_world(layout)
    steps = simulate_run(world, traj, NoiseSpec(), ScanPattern(n_rings=1, n_azimuth=1))
    return world, [s.gt_pose for s in steps]


def _assert_same_scans(world, poses, pattern):
    dirs = ray_directions(pattern)
    for pose in poses:
        expected = _reference_raycast(world, pose, pattern, dirs)
        assert np.array_equal(raycast(world, pose, pattern, dirs), expected)
        assert np.array_equal(raycast(world, pose, pattern), expected)


# enough rays that each batch of `raycast` holds one wall, so every wall's
# distance prunes rays
SCAN_OF_ONE_WALL_BATCHES = ScanPattern(n_azimuth=720)


class TestRaycastMatchesReference:
    """`raycast` culls and batches the walls; its scans equal the plain
    per-wall loop's bit for bit."""

    @pytest.mark.parametrize("max_range", [9.0, 50.0])
    @pytest.mark.parametrize("n_rooms", [4, 8])
    def test_every_stream_pose(self, n_rooms, max_range):
        world, poses = _rooms_world_and_poses(n_rooms)
        _assert_same_scans(world, poses, ScanPattern(n_azimuth=180, max_range=max_range))

    def test_tilted_poses(self):
        world, poses = _rooms_world_and_poses(4)
        rng = np.random.default_rng(7)
        tilted = [
            Pose3(p.rotation @ rot_exp(np.array([roll, pitch, 0.0])), p.translation)
            for p, (roll, pitch) in zip(poses[::6], rng.uniform(-0.8, 0.8, (len(poses), 2)))
        ]
        _assert_same_scans(world, tilted, ScanPattern(n_azimuth=180, max_range=9.0))

    def test_random_poses_near_floor_and_ceiling(self):
        # a low or high sensor's rays meet the nearby floor or ceiling, and
        # many of them meet a wall of a later batch first
        layout = default_multi_room_layout(4)
        world = generate_world(layout)
        rng = np.random.default_rng(11)
        poses = []
        for rect in (layout.rects[i] for i in rng.integers(len(layout.rects), size=40)):
            x, y = rng.uniform((rect.x_min, rect.y_min), (rect.x_max, rect.y_max))
            tilt = rot_exp(np.append(rng.uniform(-0.4, 0.4, 2), rng.uniform(-np.pi, np.pi)))
            poses.append(Pose3(tilt, np.array([x, y, rng.uniform(0.05, 2.45)])))
        for max_range in (4.0, 50.0):
            pattern = replace(SCAN_OF_ONE_WALL_BATCHES, max_range=max_range)
            _assert_same_scans(world, poses, pattern)

    def test_a_farther_wall_cuts_a_floor_ray_short(self):
        # from (-0.6, 0, 1) the ray 15 degrees down along +x meets the floor,
        # 1 m away, at 3.86 m, but the x = 3 wall, 3.6 m away, already at
        # 3.73 m: a hit beyond the wall's distance keeps the ray live
        world = single_room_world()
        pose = Pose3.from_xyz_yaw(-0.6, 0.0, 1.0, 0.0)
        _assert_same_scans(world, [pose], SCAN_OF_ONE_WALL_BATCHES)

    def test_sensor_on_a_wall_plane_and_at_a_corner(self):
        # the room spans x in [-3, 3], y in [-2, 2], z in [0, 2.5]
        world = single_room_world()
        poses = [
            Pose3.from_xyz_yaw(-3.0, 0.5, 1.0, 0.3),  # on the x = -3 wall
            Pose3.from_xyz_yaw(1.0, -0.5, 0.0, 0.0),  # on the floor
            Pose3.from_xyz_yaw(3.0, 2.0, 1.0, 0.0),  # on the edge of two walls
            Pose3.from_xyz_yaw(3.0, 2.0, 2.5, 0.0),  # at a corner of three
        ]
        # nine rings: the level one meets the floor plane the sensor is on at 0 / 0
        _assert_same_scans(world, poses, ScanPattern(n_rings=9, n_azimuth=90))

    def test_odd_ring_count_has_a_level_ring(self):
        pattern = ScanPattern(n_rings=9, n_azimuth=120, max_range=9.0)
        assert np.count_nonzero(ray_directions(pattern)[:, 2] == 0.0) == 120
        world, poses = _rooms_world_and_poses(4)
        _assert_same_scans(world, poses[::5], pattern)

    def test_max_range_short_of_every_wall(self):
        # the nearest walls are the floor and ceiling, 1.25 m away
        world = single_room_world()
        pose = Pose3.from_xyz_yaw(0.0, 0.0, 1.25, 0.0)
        pattern = ScanPattern(max_range=1.0)
        assert _reference_raycast(world, pose, pattern).shape == (0, 3)
        _assert_same_scans(world, [pose], pattern)

    def test_no_wall_in_range(self):
        world = single_room_world()
        pose = Pose3.from_xyz_yaw(40.0, -30.0, 1.0, 0.0)
        for max_range in (9.0, 50.0):
            pattern = ScanPattern(n_rings=8, n_azimuth=90, max_range=max_range)
            _assert_same_scans(world, [pose], pattern)
        assert raycast(world, pose, ScanPattern(max_range=9.0)).shape == (0, 3)


def small_traj():
    return TrajectorySpec(
        waypoints=((-1.5, 0.0, 0.0), (1.5, 0.0, 0.0)), speed=1.0, scan_rate=2.0
    )


class TestSimulateRun:
    def test_deterministic(self):
        world = single_room_world()
        noise = NoiseSpec(trans_drift=0.02, rot_drift=0.01, range_sigma=0.01, seed=3)
        a = simulate_run(world, small_traj(), noise)
        b = simulate_run(world, small_traj(), noise)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.scan.points, sb.scan.points)
            assert np.array_equal(sa.odom_pose.translation, sb.odom_pose.translation)
            assert np.array_equal(sa.odom_pose.rotation, sb.odom_pose.rotation)

    def test_zero_noise_odometry_equals_ground_truth(self):
        world = single_room_world()
        steps = simulate_run(world, small_traj(), NoiseSpec())
        for s in steps:
            assert np.allclose(s.odom_pose.translation, s.gt_pose.translation, atol=1e-12)
            assert np.allclose(s.odom_pose.rotation, s.gt_pose.rotation, atol=1e-12)

    def test_zero_noise_scans_noise_free(self):
        world = single_room_world()
        steps = simulate_run(world, small_traj(), NoiseSpec())
        s = steps[0]
        world_pts = s.scan.points @ s.gt_pose.rotation.T + s.gt_pose.translation
        dmin = np.full(world_pts.shape[0], np.inf)
        for w in world.walls:
            dmin = np.minimum(dmin, np.abs(world_pts[:, w.axis] - w.offset))
        assert float(dmin.max()) < 1e-9

    def test_drift_grows_with_distance(self):
        # random-walk magnitude: end-point drift scales like sqrt of length,
        # checked loosely over a seed ensemble
        world = single_room_world()
        traj = small_traj()
        drifts = []
        for seed in range(30):
            steps = simulate_run(
                world, traj, NoiseSpec(trans_drift=0.05, seed=seed)
            )
            d = np.linalg.norm(
                steps[-1].odom_pose.translation - steps[-1].gt_pose.translation
            )
            drifts.append(d)
        # path length ~6 m: per-axis std 0.05*sqrt(6) -> 3-axis mean ~0.19
        mean = float(np.mean(drifts))
        assert 0.05 < mean < 0.5

    def test_timestamps_monotonic(self):
        world = single_room_world()
        steps = simulate_run(world, small_traj(), NoiseSpec())
        ts = [s.timestamp for s in steps]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize(
        ("traj", "pattern", "field"),
        [
            (replace(small_traj(), speed=0.0), ScanPattern(), "TrajectorySpec.speed"),
            (replace(small_traj(), speed=-1.0), ScanPattern(), "TrajectorySpec.speed"),
            (replace(small_traj(), speed=math.nan), ScanPattern(), "TrajectorySpec.speed"),
            (replace(small_traj(), scan_rate=0.0), ScanPattern(), "TrajectorySpec.scan_rate"),
            (replace(small_traj(), scan_rate=-2.0), ScanPattern(), "TrajectorySpec.scan_rate"),
            (replace(small_traj(), scan_rate=math.inf), ScanPattern(), "TrajectorySpec.scan_rate"),
            (replace(small_traj(), loops=0), ScanPattern(), "TrajectorySpec.loops"),
            (replace(small_traj(), waypoints=()), ScanPattern(), "TrajectorySpec.waypoints"),
            (
                replace(small_traj(), waypoints=((1.0, 0.0, 0.0),)),
                ScanPattern(),
                "TrajectorySpec.waypoints",
            ),
            (small_traj(), ScanPattern(n_rings=0), "ScanPattern.n_rings"),
            (small_traj(), ScanPattern(n_azimuth=-3), "ScanPattern.n_azimuth"),
            (small_traj(), ScanPattern(max_range=0.0), "ScanPattern.max_range"),
            (small_traj(), ScanPattern(max_range=-5.0), "ScanPattern.max_range"),
            (small_traj(), ScanPattern(max_range=math.nan), "ScanPattern.max_range"),
            (replace(small_traj(), sensor_height=math.nan), ScanPattern(), "TrajectorySpec.sensor_height"),
            (replace(small_traj(), sensor_height=-math.inf), ScanPattern(), "TrajectorySpec.sensor_height"),
        ],
    )
    def test_degenerate_spec_raises_naming_the_field(self, traj, pattern, field):
        with pytest.raises(InvalidSpec, match=field):
            simulate_run(single_room_world(), traj, NoiseSpec(), pattern)

    @pytest.mark.parametrize("value", [-0.01, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["trans_drift", "rot_drift", "range_sigma"])
    def test_bad_noise_raises_naming_the_field(self, field, value):
        with pytest.raises(InvalidSpec, match=f"NoiseSpec.{field}"):
            simulate_run(single_room_world(), small_traj(), replace(NoiseSpec(), **{field: value}))

    def test_perimeter_waypoints_cover_rects(self):
        layout = default_multi_room_layout(4)
        wps = perimeter_waypoints(list(layout.rects))
        assert len(wps) == len(layout.rects)
        for (x, y, _), rect in zip(wps, layout.rects):
            assert rect.x_min < x < rect.x_max
            assert rect.y_min < y < rect.y_max


class TestAnnotationsSatisfyDetection:
    def test_room_annotations_pass_detect_room(self):
        # ground-truth walls of each annotated room satisfy the detection
        # criteria exactly when fed in as ideal landmarks
        from sgraph.graph import PlaneLandmark
        from sgraph.geometry import PlaneMinimal
        from sgraph.topology import RoomCriterionConfig, detect_room

        layout = default_multi_room_layout(4)
        world = generate_world(layout)
        cfg = RoomCriterionConfig(coverage_min=0.0, coverage_max=100.0)
        for room in world.rooms:
            cx, cy = room.center
            wx, wy = room.widths
            walls = []
            for i, (axis, coord) in enumerate(
                ((0, cx - wx / 2), (0, cx + wx / 2), (1, cy - wy / 2), (1, cy + wy / 2))
            ):
                az = 0.0 if axis == 0 else math.pi / 2
                if coord < 0:
                    az += math.pi
                length = wy if axis == 0 else wx
                sgn = 1.0 if coord >= 0 else -1.0
                obs = cx if axis == 0 else cy
                side = 1.0 if sgn * obs - abs(coord) >= 0 else -1.0
                walls.append(
                    PlaneLandmark(
                        id=i,
                        params=PlaneMinimal(az, 0.0, abs(coord)),
                        plane_class=PlaneClass.X_VERTICAL if axis == 0 else PlaneClass.Y_VERTICAL,
                        extent=np.array([length, 2.5]),
                        side=side,
                    )
                )
            spans = detect_room((walls[0], walls[1]), (walls[2], walls[3]), cfg)
            assert spans is not None
            assert np.allclose([s.center for s in spans], room.center, atol=1e-12)
            assert np.allclose([s.width for s in spans], room.widths, atol=1e-12)

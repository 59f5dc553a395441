"""World generation, raycasting, odometry noise model and determinism."""

import math

import numpy as np
import pytest

from sgraph.geometry import PlaneClass, Pose3
from sgraph.simulator import (
    InvalidLayout,
    LayoutSpec,
    NoiseSpec,
    RectSpec,
    ScanPattern,
    TrajectorySpec,
    default_multi_room_layout,
    generate_world,
    perimeter_waypoints,
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
                centroid = np.zeros(3)
                centroid[axis] = coord
                sgn = 1.0 if coord >= 0 else -1.0
                obs = cx if axis == 0 else cy
                side = 1.0 if sgn * obs - abs(coord) >= 0 else -1.0
                walls.append(
                    PlaneLandmark(
                        id=i,
                        params=PlaneMinimal(az, 0.0, abs(coord)),
                        plane_class=PlaneClass.X_VERTICAL if axis == 0 else PlaneClass.Y_VERTICAL,
                        extent=np.array([length, 2.5]),
                        centroid=centroid,
                        side=side,
                    )
                )
            spans = detect_room((walls[0], walls[1]), (walls[2], walls[3]), cfg)
            assert spans is not None
            assert np.allclose([s.center for s in spans], room.center, atol=1e-12)
            assert np.allclose([s.width for s in spans], room.widths, atol=1e-12)

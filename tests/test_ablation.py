"""Ground-truth plane matching of the duplicate-wall count."""

import math

import numpy as np
import pytest

from sgraph.ablation import duplicate_plane_count
from sgraph.geometry import PlaneClass, PlaneMinimal, Pose3
from sgraph.graph import Keyframe, PlaneLandmark, SGraph
from sgraph.pipeline import SlamResult
from sgraph.simulator import LayoutSpec, RectSpec, generate_world

# walls at x = -4 and 2, y = 1 and 5, floor at z = 0 and ceiling at 2.5:
# no two planes of one axis lie within the distance tolerance of each
# other's distance from the origin
WORLD = generate_world(LayoutSpec(rects=(RectSpec(-4.0, 2.0, 1.0, 5.0),), wall_height=2.5))

ON_X2 = (0.0, 0.0, 2.0)


def result_with(*planes, origin=Pose3.identity()):
    """A SLAM result whose map holds one landmark per (azimuth, elevation,
    distance), with its keyframe 0, the map origin, at `origin` in the
    world."""
    landmarks = {
        i: PlaneLandmark(i, PlaneMinimal(*p), PlaneClass.X_VERTICAL, np.ones(2), np.zeros(3))
        for i, p in enumerate(planes)
    }
    keyframe = Keyframe(0, 0.0, Pose3.identity(), origin, np.zeros((6, 6)))
    return SlamResult(graph=SGraph(keyframes={0: keyframe}, planes=landmarks))


def test_a_split_or_shared_wall_is_one_plane():
    # x = 4 is split by the door between the rectangles, and the floor and
    # ceiling are each shared by both
    two_rooms = generate_world(
        LayoutSpec(rects=(RectSpec(0.0, 4.0, 0.0, 4.0), RectSpec(4.0, 8.0, 1.0, 3.0)))
    )
    on_x4, floor = (0.0, 0.0, 4.0), (0.0, -math.pi / 2, 0.0)
    assert duplicate_plane_count(result_with(on_x4, floor), two_rooms) == 0
    assert duplicate_plane_count(result_with(on_x4, on_x4, floor, floor), two_rooms) == 2


@pytest.mark.parametrize(
    ("planes", "duplicates"),
    [
        # two landmarks on one wall plane are one duplicate
        ((ON_X2, (0.05, 0.0, 2.1)), 1),
        ((ON_X2, ON_X2, ON_X2), 2),
        # landmarks on different walls are none
        ((ON_X2, (math.pi / 2, 0.0, 1.0), (math.pi / 2, 0.0, 5.0)), 0),
        # a wall at negative offset is matched: the landmark's normal is -x
        (((math.pi, 0.0, 4.0), (math.pi, 0.0, 4.2)), 1),
        # the floor and the ceiling are matched
        (((0.0, -math.pi / 2, 0.0), (0.0, -math.pi / 2, 0.2)), 1),
        (((0.0, math.pi / 2, 2.5), (0.0, math.pi / 2, 2.4)), 1),
        # farther than DUPLICATE_DIST_TOL from every plane: not matched
        ((ON_X2, (0.0, 0.0, 2.6)), 0),
        # tilted beyond DUPLICATE_ANGLE_TOL: not matched
        ((ON_X2, (0.2, 0.0, 2.0)), 0),
        ((ON_X2, (0.0, 0.2, 2.0)), 0),
    ],
    ids=[
        "one-wall-twice", "one-wall-thrice", "three-walls", "negative-offset", "floor",
        "ceiling", "beyond-dist-tol", "azimuth-beyond-angle-tol", "elevation-beyond-angle-tol",
    ],
)
def test_duplicate_plane_count(planes, duplicates):
    assert duplicate_plane_count(result_with(*planes), WORLD) == duplicates


def test_nearest_plane_wins():
    # x = 2 and x = 2.4 are both within DUPLICATE_DIST_TOL of a landmark at 2.3:
    # it matches the nearer, x = 2.4, so the one at 2.0 has no duplicate
    corridor = RectSpec(2.0, 2.4, 1.5, 2.5, kind="corridor")
    world = generate_world(LayoutSpec(rects=(RectSpec(-4.0, 2.0, 1.0, 5.0), corridor)))
    assert duplicate_plane_count(result_with(ON_X2, (0.0, 0.0, 2.3)), world) == 0
    assert duplicate_plane_count(result_with(ON_X2, (0.0, 0.0, 2.1)), world) == 1


@pytest.mark.parametrize(
    ("y_walls", "planes", "origin", "duplicates"),
    [
        # the map origin sits at (2.5, 3.45, 1.0) turned 90 degrees, so
        # wall x = 2 is the map's plane y = 0.5; read in the map frame,
        # both landmarks would match no wall
        ((1.0, 5.0), ((math.pi / 2, 0.0, 0.5), (math.pi / 2, 0.0, 0.45)),
         Pose3.from_xyz_yaw(2.5, 3.45, 1.0, math.pi / 2), 1),
        # walls on opposite sides of the origin: y = -1.6 is nearer to
        # y = -1.8 than to y = 1.5, though nearer to 1.5 in distance
        ((-1.8, 1.5), ((math.pi / 2, 0.0, 1.5), (-math.pi / 2, 0.0, 1.6)), Pose3.identity(), 0),
        # y = 0.2 is nearer to y = 0 than to y = -0.3
        ((-0.3, 0.0), ((math.pi / 2, 0.0, 0.2), (-math.pi / 2, 0.0, 0.3)), Pose3.identity(), 0),
    ],
    ids=["map-origin-off-the-world-origin", "walls-either-side-of-the-origin", "wall-through-the-origin"],
)
def test_landmarks_match_by_world_frame_signed_offset(y_walls, planes, origin, duplicates):
    world = generate_world(LayoutSpec(rects=(RectSpec(-4.0, 2.0, *y_walls),)))
    assert duplicate_plane_count(result_with(*planes, origin=origin), world) == duplicates

"""Ground-truth plane matching of the duplicate-wall count."""

import math

import numpy as np
import pytest

from sgraph.ablation import duplicate_plane_count, world_infinite_planes
from sgraph.geometry import PlaneClass, PlaneMinimal
from sgraph.graph import PlaneLandmark, SGraph
from sgraph.pipeline import SlamResult
from sgraph.simulator import LayoutSpec, RectSpec, generate_world

# walls at x = -4 and 2, y = 1 and 5, floor at z = 0 and ceiling at 2.5:
# no two planes of one axis lie within the distance tolerance of each
# other's distance from the origin
WORLD = generate_world(LayoutSpec(rects=(RectSpec(-4.0, 2.0, 1.0, 5.0),), wall_height=2.5))

ON_X2 = (0.0, 0.0, 2.0)


def result_with(*planes):
    """A SLAM result whose map holds one landmark per (azimuth, elevation,
    distance)."""
    landmarks = {
        i: PlaneLandmark(i, PlaneMinimal(*p), PlaneClass.X_VERTICAL, np.ones(2), np.zeros(3))
        for i, p in enumerate(planes)
    }
    return SlamResult(graph=SGraph(planes=landmarks))


def test_ground_truth_planes_are_the_wall_planes():
    planes = world_infinite_planes(WORLD)
    assert [(tuple(p.normal), p.distance) for p in planes] == [
        ((-1.0, 0.0, 0.0), 4.0),
        ((1.0, 0.0, 0.0), 2.0),
        ((0.0, 1.0, 0.0), 1.0),
        ((0.0, 1.0, 0.0), 5.0),
        ((0.0, 0.0, 1.0), 0.0),
        ((0.0, 0.0, 1.0), 2.5),
    ]
    # a wall plane split by a door, or shared by two rectangles, is one
    # plane: x = 0, 4, 8, y = 0, 4, 1, 3 and the floor and ceiling
    two_rooms = generate_world(
        LayoutSpec(rects=(RectSpec(0.0, 4.0, 0.0, 4.0), RectSpec(4.0, 8.0, 1.0, 3.0)))
    )
    assert len(world_infinite_planes(two_rooms)) == 3 + 4 + 2


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
        # farther than dist_tol from every plane: not matched
        ((ON_X2, (0.0, 0.0, 2.6)), 0),
        # tilted beyond angle_tol: not matched
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
    # x = 2 and x = 2.4 are both within dist_tol of a landmark at 2.3:
    # it matches the nearer, x = 2.4, so the one at 2.0 has no duplicate
    corridor = RectSpec(2.0, 2.4, 1.5, 2.5, kind="corridor")
    world = generate_world(LayoutSpec(rects=(RectSpec(-4.0, 2.0, 1.0, 5.0), corridor)))
    assert duplicate_plane_count(result_with(ON_X2, (0.0, 0.0, 2.3)), world) == 0
    assert duplicate_plane_count(result_with(ON_X2, (0.0, 0.0, 2.1)), world) == 1

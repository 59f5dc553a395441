"""Room/corridor detection criteria, node construction identities and
room-level association with duplicate-wall merging."""

import math

import numpy as np
import pytest

from sgraph.factors import FactorKind
from sgraph.geometry import PlaneClass, PlaneMinimal
from sgraph.graph import PlaneLandmark, SGraph
from sgraph.topology import (
    NEW_ROOM,
    RoomCriterionConfig,
    associate_room,
    detect_corridor,
    detect_room,
    update_topology,
)

from test_factors import corridor_plane, room_plane

CFG = RoomCriterionConfig(
    min_width=0.5, extent_ratio_max=3.0, coverage_min=0.0, coverage_max=100.0
)


def wall(lm_id, axis, signed_d, length=4.0, observer=(3.0, 3.0), flip_side=False):
    """Vertical wall landmark at signed distance along the given axis.

    The stored minimal parameters carry d >= 0; the facing direction is
    recovered from the side bit, computed here for an observer standing at
    the given (x, y) point (normals of walls enclosing the observer then
    point toward each other). flip_side fakes a same-facing wall.
    """
    az = {("x", 1): 0.0, ("x", -1): math.pi, ("y", 1): math.pi / 2, ("y", -1): -math.pi / 2}
    sgn = 1 if signed_d >= 0 else -1
    params = PlaneMinimal(az[(axis, sgn)], 0.0, abs(signed_d))
    cls = PlaneClass.X_VERTICAL if axis == "x" else PlaneClass.Y_VERTICAL
    idx = 0 if axis == "x" else 1
    centroid = np.zeros(3)
    centroid[idx] = signed_d
    # side = sign(n . observer - d) with the stored (positive-d) normal
    n_axis = float(sgn)
    gap = n_axis * observer[idx] - abs(signed_d)
    side = 1.0 if gap >= 0.0 else -1.0
    if flip_side:
        side = -side
    return PlaneLandmark(
        id=lm_id,
        params=params,
        plane_class=cls,
        extent=np.array([length, 2.5]),
        centroid=centroid,
        side=side,
    )


class TestDetectRoom:
    def test_worked_example(self):
        # x-walls at 1 and 5, y-walls at 2 and 4 -> center (3, 3), widths (4, 2)
        room = detect_room(
            (wall(0, "x", 1.0), wall(1, "x", 5.0)),
            (wall(2, "y", 2.0), wall(3, "y", 4.0)),
            CFG,
        )
        assert room is not None
        assert np.allclose(room.center, [3.0, 3.0], atol=1e-12)
        assert np.allclose(room.widths, [4.0, 2.0], atol=1e-12)
        assert room.plane_links == (0, 1, 2, 3)

    def test_center_identities_exact(self):
        room = detect_room(
            (wall(0, "x", 1.0), wall(1, "x", 5.0)),
            (wall(2, "y", 2.0), wall(3, "y", 4.0)),
            CFG,
        )
        # low edge of the room coincides with the low wall on both axes
        assert abs((room.center[0] - room.widths[0] / 2.0) - 1.0) < 1e-12
        assert abs((room.center[1] - room.widths[1] / 2.0) - 2.0) < 1e-12

    def test_same_facing_normals_rejected(self):
        # both x-walls facing the same way cannot enclose a room
        a = wall(0, "x", 1.0)
        b = wall(1, "x", 5.0, flip_side=True)
        assert detect_room((a, b), (wall(2, "y", 2.0), wall(3, "y", 4.0)), CFG) is None

    def test_width_below_minimum_rejected(self):
        room = detect_room(
            (wall(0, "x", 1.0), wall(1, "x", 1.3)),
            (wall(2, "y", 2.0), wall(3, "y", 4.0)),
            CFG,
        )
        assert room is None

    def test_dissimilar_extents_rejected(self):
        room = detect_room(
            (wall(0, "x", 1.0, length=10.0), wall(1, "x", 5.0, length=1.0)),
            (wall(2, "y", 2.0), wall(3, "y", 4.0)),
            CFG,
        )
        assert room is None

    def test_order_independent(self):
        a = detect_room(
            (wall(0, "x", 5.0), wall(1, "x", 1.0)),
            (wall(2, "y", 4.0), wall(3, "y", 2.0)),
            CFG,
        )
        assert a is not None
        assert np.allclose(a.center, [3.0, 3.0])
        assert a.plane_links == (1, 0, 3, 2)  # reordered low-first

    def test_negative_side_walls(self):
        # room straddling the origin: x-walls at -3 and 1
        room = detect_room(
            (wall(0, "x", -3.0, observer=(-1.0, 0.0)), wall(1, "x", 1.0, observer=(-1.0, 0.0))),
            (wall(2, "y", -1.0, observer=(-1.0, 0.0)), wall(3, "y", 1.0, observer=(-1.0, 0.0))),
            CFG,
        )
        assert room is not None
        assert np.allclose(room.center, [-1.0, 0.0], atol=1e-12)
        assert np.allclose(room.widths, [4.0, 2.0], atol=1e-12)


class TestDetectCorridor:
    def test_worked_example(self):
        # x-walls at 0 and 2 -> x-corridor center 1, width 2
        corr = detect_corridor((wall(0, "x", 0.0, observer=(1.0, 0.0)), wall(1, "x", 2.0, observer=(1.0, 0.0))), CFG)
        assert corr is not None
        assert corr.axis is PlaneClass.X_VERTICAL
        assert corr.center[0] == pytest.approx(1.0, abs=1e-12)
        assert corr.width == pytest.approx(2.0, abs=1e-12)

    def test_same_facing_rejected(self):
        a = wall(0, "x", 0.0, observer=(1.0, 0.0))
        b = wall(1, "x", 2.0, observer=(1.0, 0.0), flip_side=True)
        assert detect_corridor((a, b), CFG) is None

    def test_too_wide_rejected(self):
        assert detect_corridor((wall(0, "x", 0.0, observer=(2.0, 0.0)), wall(1, "x", 4.0, observer=(2.0, 0.0))), CFG) is None

    def test_mixed_classes_rejected(self):
        assert detect_corridor((wall(0, "x", 0.0), wall(1, "y", 2.0)), CFG) is None

    def test_width_below_minimum_rejected(self):
        pair = (wall(0, "x", 1.0, observer=(1.15, 0.0)), wall(1, "x", 1.3, observer=(1.15, 0.0)))
        assert detect_corridor(pair, CFG) is None

    def test_dissimilar_extents_rejected(self):
        pair = (
            wall(0, "x", 0.0, length=10.0, observer=(1.0, 0.0)),
            wall(1, "x", 2.0, length=1.0, observer=(1.0, 0.0)),
        )
        assert detect_corridor(pair, CFG) is None

    def test_exactly_max_width_accepted(self):
        corr = detect_corridor((wall(0, "x", 0.0, observer=(1.25, 0.0)), wall(1, "x", 2.5, observer=(1.25, 0.0))), CFG)
        assert corr is not None and corr.width == CFG.corridor_max_width == 2.5

    def test_free_axis_center_from_centroids(self):
        a = wall(0, "x", 0.0, observer=(1.0, 4.0))
        b = wall(1, "x", 2.0, observer=(1.0, 4.0))
        a.centroid = np.array([0.0, 3.0, 1.0])
        b.centroid = np.array([2.0, 5.0, 1.0])
        corr = detect_corridor((a, b), CFG)
        assert corr.center[1] == pytest.approx(4.0, abs=1e-12)


class TestMinimumWidthBoundary:
    """Walls exactly `min_width` apart are too close for a room or a corridor."""

    def x_pair(self):
        return wall(0, "x", 1.0, observer=(1.25, 3.0)), wall(1, "x", 1.5, observer=(1.25, 3.0))

    def test_room_rejected(self):
        y_pair = (wall(2, "y", 2.0, observer=(1.25, 3.0)), wall(3, "y", 4.0, observer=(1.25, 3.0)))
        assert 1.5 - 1.0 == CFG.min_width
        assert detect_room(self.x_pair(), y_pair, CFG) is None

    def test_corridor_rejected(self):
        assert detect_corridor(self.x_pair(), CFG) is None


class TestResidualsAtCreation:
    def test_room_residuals_zero_at_creation(self):
        room = detect_room(
            (wall(0, "x", 1.0), wall(1, "x", 5.0)),
            (wall(2, "y", 2.0), wall(3, "y", 4.0)),
            CFG,
        )
        planes = {
            0: PlaneMinimal(0.0, 0.0, 1.0),
            1: PlaneMinimal(0.0, 0.0, 5.0),
            2: PlaneMinimal(math.pi / 2, 0.0, 2.0),
            3: PlaneMinimal(math.pi / 2, 0.0, 4.0),
        }
        for slot, pid in enumerate(room.plane_links):
            r, _, _ = room_plane(room.center, room.widths, planes[pid], slot)
            assert abs(r[0]) < 1e-12

    def test_room_residual_worked_example(self):
        # room (3,3) widths (4,2): high-x wall moved to 5.2 -> (3+2) - 5.2
        r, _, _ = room_plane(np.array([3.0, 3.0]), np.array([4.0, 2.0]), PlaneMinimal(0.0, 0.0, 5.2), 1)
        assert r[0] == pytest.approx(-0.2, abs=1e-12)

    def test_corridor_residuals_zero_at_creation(self):
        corr = detect_corridor((wall(0, "x", 1.0, observer=(2.0, 0.0)), wall(1, "x", 3.0, observer=(2.0, 0.0))), CFG)
        for slot, d in enumerate((1.0, 3.0)):
            r, _, _ = corridor_plane(corr.center[0], corr.width, PlaneMinimal(0.0, 0.0, d), slot)
            assert abs(r[0]) < 1e-12

    def test_corridor_residual_worked_example(self):
        # corridor center 1, width 2: high wall at 2.3 -> (1+1) - 2.3
        r, _, _ = corridor_plane(1.0, 2.0, PlaneMinimal(0.0, 0.0, 2.3), 1)
        assert r[0] == pytest.approx(-0.3, abs=1e-12)

    def test_corridor_free_axis_not_in_jacobian(self):
        # only the along-axis center and width enter the residual
        _, Jc, _ = corridor_plane(1.0, 2.0, PlaneMinimal(0.0, 0.0, 0.0), 0)
        assert Jc.shape == (1, 2)


def graph_with_room():
    g = SGraph()
    g.keyframes = {}
    for lm in (
        wall(0, "x", 1.0),
        wall(1, "x", 5.0),
        wall(2, "y", 2.0),
        wall(3, "y", 4.0),
    ):
        g.planes[lm.id] = lm
    g._next_plane_id = 4
    room = detect_room((g.planes[0], g.planes[1]), (g.planes[2], g.planes[3]), CFG)
    g.add_node(room, information=100.0)
    return g


class TestAssociateRoomAndMerge:
    def test_identical_redetection_matches(self):
        g = graph_with_room()
        cand = detect_room((g.planes[0], g.planes[1]), (g.planes[2], g.planes[3]), CFG)
        assert associate_room(g, cand, CFG) == 0

    def test_far_candidate_is_new(self):
        g = graph_with_room()
        shifted = detect_room(
            (wall(0, "x", 7.0, observer=(9.0, 3.0)), wall(1, "x", 11.0, observer=(9.0, 3.0))),
            (wall(2, "y", 2.0, observer=(9.0, 3.0)), wall(3, "y", 4.0, observer=(9.0, 3.0))),
            CFG,
        )
        assert associate_room(g, shifted, CFG) == NEW_ROOM

    def test_different_shape_near_center_is_new(self):
        g = graph_with_room()
        cand = detect_room(
            (wall(0, "x", 0.0), wall(1, "x", 6.0)),
            (wall(2, "y", 2.0), wall(3, "y", 4.0)),
            CFG,
        )
        assert associate_room(g, cand, CFG) == NEW_ROOM

    def test_duplicate_wall_merged_on_redetection(self):
        g = graph_with_room()
        # a slightly-off duplicate of the high-x wall, as produced by a
        # drifted revisit
        dup = wall(4, "x", 5.05)
        g.planes[4] = dup
        n_before = len(g.planes)
        stats = update_topology(g, [0, 4, 2, 3], CFG, information=100.0)
        assert stats["merges"] == 1
        assert len(g.planes) == n_before - 1
        assert 4 not in g.planes
        assert len(g.rooms) == 1

    def test_merge_repoints_factors(self):
        g = graph_with_room()
        dup = wall(4, "x", 5.05)
        g.planes[4] = dup
        from sgraph.factors import Factor

        g.factors.append(
            Factor(
                kind=FactorKind.POSE_PLANE,
                variables=(("kf", 0), ("plane", 4)),
                measurement=dup.params,
                information=np.eye(3),
                robust=True,
            )
        )
        update_topology(g, [0, 4, 2, 3], CFG, information=100.0)
        for f in g.factors:
            assert ("plane", 4) not in f.variables


class TestUpdateTopology:
    def test_creates_room_from_visible_walls(self):
        g = SGraph()
        for lm in (
            wall(0, "x", 1.0),
            wall(1, "x", 5.0),
            wall(2, "y", 2.0),
            wall(3, "y", 4.0),
        ):
            g.planes[lm.id] = lm
        g._next_plane_id = 4
        stats = update_topology(g, [0, 1, 2, 3], CFG, information=100.0)
        assert stats["rooms_added"] == 1
        assert len(g.rooms) == 1
        n_room_factors = sum(
            1 for f in g.factors if f.kind is FactorKind.ROOM_PLANE
        )
        assert n_room_factors == 4

    def test_room_planes_not_reused_for_corridor(self):
        g = SGraph()
        for lm in (
            wall(0, "x", 1.0, observer=(2.0, 3.0)),
            wall(1, "x", 3.0, observer=(2.0, 3.0)),
            wall(2, "y", 2.0, observer=(2.0, 3.0)),
            wall(3, "y", 4.0, observer=(2.0, 3.0)),
        ):
            g.planes[lm.id] = lm
        g._next_plane_id = 4
        update_topology(g, [0, 1, 2, 3], CFG, information=100.0)
        # the x-pair is 2 m apart (corridor-width) but already owned by the
        # room, so no corridor may claim it
        assert len(g.rooms) == 1
        assert len(g.corridors) == 0

    def test_corridor_from_unlinked_pair(self):
        g = SGraph()
        for lm in (wall(0, "x", 0.0, observer=(1.0, 2.0)), wall(1, "x", 2.0, observer=(1.0, 2.0))):
            g.planes[lm.id] = lm
        g._next_plane_id = 2
        stats = update_topology(g, [0, 1], CFG, information=100.0)
        assert stats["corridors_added"] == 1
        assert len(g.corridors) == 1
        n_corr_factors = sum(
            1 for f in g.factors if f.kind is FactorKind.CORRIDOR_PLANE
        )
        assert n_corr_factors == 2

    def test_corridor_upgraded_when_room_claims_walls(self):
        g = SGraph()
        for lm in (wall(0, "x", 0.0, observer=(1.0, 2.0)), wall(1, "x", 2.0, observer=(1.0, 2.0))):
            g.planes[lm.id] = lm
        g._next_plane_id = 2
        update_topology(g, [0, 1], CFG, information=100.0)
        assert len(g.corridors) == 1
        for lm in (wall(2, "y", 0.0, observer=(1.0, 2.0)), wall(3, "y", 4.0, observer=(1.0, 2.0))):
            g.planes[lm.id] = lm
        g._next_plane_id = 4
        stats = update_topology(g, [0, 1, 2, 3], CFG, information=100.0)
        assert stats["upgrades"] == 1
        assert len(g.corridors) == 0
        assert len(g.rooms) == 1
        # the corridor's factors went with it
        assert not any(f.kind is FactorKind.CORRIDOR_PLANE for f in g.factors)

    def test_corridor_upgraded_when_room_claims_one_wall(self):
        # corridor between x = 0 and x = 2; a room on x in [0, 4] later
        # claims its x = 0 wall but not its x = 2 one
        g = SGraph()
        for lm in (wall(0, "x", 0.0, observer=(1.0, 2.0)), wall(1, "x", 2.0, observer=(1.0, 2.0))):
            g.planes[lm.id] = lm
        update_topology(g, [0, 1], CFG, information=100.0)
        assert sum(f.kind is FactorKind.CORRIDOR_PLANE for f in g.factors) == 2
        for lm in (
            wall(2, "y", 0.0, observer=(1.0, 2.0)),
            wall(3, "y", 4.0, observer=(1.0, 2.0)),
            wall(4, "x", 4.0, observer=(1.0, 2.0)),
        ):
            g.planes[lm.id] = lm
        stats = update_topology(g, [0, 4, 2, 3], CFG, information=100.0)
        assert g.rooms[0].plane_links == (0, 4, 2, 3)
        assert stats["upgrades"] == 1
        assert g.corridors == {}
        assert not any(f.kind is FactorKind.CORRIDOR_PLANE for f in g.factors)

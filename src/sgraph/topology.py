"""Room and corridor detection from mapped vertical planes, topological
node creation and room-level data association with duplicate-plane merging."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import PlaneClass, from_minimal, plane_axis_sign
from .graph import CorridorNode, PlaneLandmark, RoomNode, SGraph

NEW_ROOM = -1


@dataclass(frozen=True)
class RoomCriterionConfig:
    min_width: float = 0.5  # lambda: minimum wall separation
    extent_ratio_max: float = 3.0
    corridor_max_width: float = 2.5  # widths above this are not corridors
    # wall length relative to the perpendicular room width; rejects
    # accidental quadruples (e.g. a corridor mouth plus far walls)
    coverage_min: float = 0.55
    coverage_max: float = 1.7
    # association: widths must agree this closely to count as a re-detection
    width_match_tol: float = 0.5


def signed_distance(lm: PlaneLandmark, axis: PlaneClass) -> float:
    """Wall distance along the positive axis, negative when the wall sits on
    the negative side of the origin."""
    return plane_axis_sign(lm.params, axis) * lm.params.distance


def _opposed(a: PlaneLandmark, b: PlaneLandmark) -> bool:
    # compare inward-facing normals: the d >= 0 storage convention flips
    # walls to whichever normal gives a positive distance, so the facing
    # direction is recovered from the observed side
    na = from_minimal(a.params).normal * a.side
    nb = from_minimal(b.params).normal * b.side
    return float(na @ nb) < 0.0


def _extents_similar(a: PlaneLandmark, b: PlaneLandmark, ratio_max: float) -> bool:
    # compare the dominant (longest) side of each wall
    la = float(np.max(a.extent))
    lb = float(np.max(b.extent))
    if min(la, lb) <= 0.0:
        return False
    return max(la, lb) / min(la, lb) <= ratio_max


def _wall_pair(
    a: PlaneLandmark, b: PlaneLandmark, axis: PlaneClass, cfg: RoomCriterionConfig
) -> tuple[PlaneLandmark, PlaneLandmark, float, float] | None:
    """The two walls in order of signed distance along `axis`, with those
    distances, or None unless they face each other, lie more than
    `min_width` apart and have similar extents."""
    da, db = signed_distance(a, axis), signed_distance(b, axis)
    if da > db:
        a, b, da, db = b, a, db, da
    if not _opposed(a, b) or db - da <= cfg.min_width:
        return None
    if not _extents_similar(a, b, cfg.extent_ratio_max):
        return None
    return a, b, da, db


def detect_room(
    x_planes: tuple[PlaneLandmark, PlaneLandmark],
    y_planes: tuple[PlaneLandmark, PlaneLandmark],
    cfg: RoomCriterionConfig,
) -> RoomNode | None:
    """Room test on a 2+2 wall candidate.

    Both pairs must pass `_wall_pair`, and each wall must span roughly the
    perpendicular room width. The center is placed midway between the
    signed wall distances.
    """
    x_pair = _wall_pair(*x_planes, PlaneClass.X_VERTICAL, cfg)
    y_pair = _wall_pair(*y_planes, PlaneClass.Y_VERTICAL, cfg)
    if x_pair is None or y_pair is None:
        return None
    x1, x2, dx1, dx2 = x_pair
    y1, y2, dy1, dy2 = y_pair
    wx = dx2 - dx1
    wy = dy2 - dy1
    for wall, span in ((x1, wy), (x2, wy), (y1, wx), (y2, wx)):
        length = float(np.max(wall.extent))
        if not (cfg.coverage_min * span <= length <= cfg.coverage_max * span):
            return None
    center = np.array([wx / 2.0 + dx1, wy / 2.0 + dy1])
    return RoomNode(
        id=-1,
        center=center,
        widths=np.array([wx, wy]),
        plane_links=(x1.id, x2.id, y1.id, y2.id),
    )


def detect_corridor(
    pair: tuple[PlaneLandmark, PlaneLandmark], cfg: RoomCriterionConfig
) -> CorridorNode | None:
    """Corridor test on a parallel wall pair of equal vertical class: the
    pair must pass `_wall_pair` and be at most `corridor_max_width` wide."""
    a, b = pair
    if a.plane_class is not b.plane_class:
        return None
    if a.plane_class is PlaneClass.HORIZONTAL:
        return None
    axis = a.plane_class
    walls = _wall_pair(a, b, axis, cfg)
    if walls is None:
        return None
    p1, p2, d1, d2 = walls
    w = d2 - d1
    if w > cfg.corridor_max_width:
        return None
    center_axis = w / 2.0 + d1
    perp_idx = 1 - axis.index
    perp = float((p1.centroid[perp_idx] + p2.centroid[perp_idx]) / 2.0)
    center = np.zeros(2)
    center[axis.index] = center_axis
    center[perp_idx] = perp
    return CorridorNode(id=-1, axis=axis, center=center, width=w, plane_links=(p1.id, p2.id))


def associate_room(graph: SGraph, candidate: RoomNode, cfg: RoomCriterionConfig) -> int:
    """Match a candidate against mapped rooms by center distance.

    The gate scales with the room size: half the smaller width. Matching
    also requires agreeing widths so a differently-shaped candidate near
    the same center is not folded in. Returns the matched id or NEW_ROOM.
    """
    best_id = NEW_ROOM
    best_dist = math.inf
    for room in graph.rooms.values():
        gate = min(room.widths[0], room.widths[1]) / 2.0
        dist = float(np.linalg.norm(room.center - candidate.center))
        if dist >= gate or dist >= best_dist:
            continue
        if np.any(np.abs(room.widths - candidate.widths) > cfg.width_match_tol):
            continue
        best_dist = dist
        best_id = room.id
    return best_id


def merge_candidate_into_room(graph: SGraph, room_id: int, candidate: RoomNode) -> int:
    """Merge duplicated wall landmarks of a re-detected room.

    For each wall slot where the candidate references a different landmark
    than the mapped room, the candidate's landmark is folded into the
    mapped one. Returns the number of merges performed.
    """
    room = graph.rooms[room_id]
    merges = 0
    for keep_id, dup_id in zip(room.plane_links, candidate.plane_links):
        if keep_id != dup_id and dup_id in graph.planes and keep_id in graph.planes:
            graph.merge_planes(keep_id, dup_id)
            merges += 1
    return merges


def update_topology(
    graph: SGraph,
    visible_plane_ids: list[int],
    cfg: RoomCriterionConfig,
    information: float,
) -> dict[str, int]:
    """Run room/corridor detection over the planes seen at one keyframe.

    Only vertical planes are considered. Candidate rooms are first checked
    against mapped rooms (merging duplicated walls); unmatched candidates
    that share no wall with a mapped room become new room nodes. A new room
    upgrades (removes) every corridor it claims any one wall of. Remaining
    unlinked pairs may become corridors.
    """
    stats = {"rooms_added": 0, "corridors_added": 0, "merges": 0, "upgrades": 0}
    visible = [graph.planes[p] for p in visible_plane_ids if p in graph.planes]
    x_planes = [p for p in visible if p.plane_class is PlaneClass.X_VERTICAL]
    y_planes = [p for p in visible if p.plane_class is PlaneClass.Y_VERTICAL]

    # rooms first: they take precedence over corridors
    for xp in itertools.combinations(x_planes, 2):
        for yp in itertools.combinations(y_planes, 2):
            ids = {xp[0].id, xp[1].id, yp[0].id, yp[1].id}
            if not ids <= set(graph.planes):
                continue
            candidate = detect_room(xp, yp, cfg)
            if candidate is None:
                continue
            match = associate_room(graph, candidate, cfg)
            if match != NEW_ROOM:
                stats["merges"] += merge_candidate_into_room(graph, match, candidate)
                continue
            walls = set(candidate.plane_links)
            if any(walls.intersection(r.plane_links) for r in graph.rooms.values()):
                continue
            # upgrade corridors whose walls are claimed by this room
            claimed = [c for c, k in graph.corridors.items() if walls.intersection(k.plane_links)]
            for cid in claimed:
                graph.remove_corridor(cid)
            stats["upgrades"] += len(claimed)
            graph.add_node(candidate, information)
            stats["rooms_added"] += 1

    nodes = (*graph.rooms.values(), *graph.corridors.values())
    linked = {p for node in nodes for p in node.plane_links}
    for group in (x_planes, y_planes):
        for pair in itertools.combinations(group, 2):
            if pair[0].id in linked or pair[1].id in linked:
                continue
            if pair[0].id not in graph.planes or pair[1].id not in graph.planes:
                continue
            candidate = detect_corridor(pair, cfg)
            if candidate is None:
                continue
            graph.add_node(candidate, information)
            linked.update(candidate.plane_links)
            stats["corridors_added"] += 1
    return stats

"""Room and corridor detection from mapped vertical planes, topological
node creation and room-level data association with duplicate-plane merging."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import PlaneClass, _axis_sign, from_minimal
from .graph import PlaneLandmark, SGraph, Span

NEW_ROOM = -1
CORRIDOR_MAX_WIDTH = 2.5  # wall pairs wider than this are no corridor
# a re-detected room's spans must each agree with the mapped ones this
# closely in width
WIDTH_MATCH_TOL = 0.5


@dataclass(frozen=True)
class RoomCriterionConfig:
    min_width: float = 0.5  # lambda: minimum wall separation
    extent_ratio_max: float = 3.0
    # wall length relative to the perpendicular room width; rejects
    # accidental quadruples (e.g. a corridor mouth plus far walls)
    coverage_min: float = 0.55
    coverage_max: float = 1.7


def signed_distance(lm: PlaneLandmark, axis: PlaneClass) -> float:
    """Wall distance along the positive axis, negative when the wall sits on
    the negative side of the origin."""
    sign = _axis_sign(lm.params.as_array()[None], np.array([axis.index]))
    return float(sign[0]) * lm.params.distance


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
) -> Span | None:
    """The span between two walls along `axis`, or None unless they face
    each other, lie more than `min_width` apart and have similar extents.
    The center is placed midway between the signed wall distances."""
    da, db = signed_distance(a, axis), signed_distance(b, axis)
    if da > db:
        a, b, da, db = b, a, db, da
    if not _opposed(a, b) or db - da <= cfg.min_width:
        return None
    if not _extents_similar(a, b, cfg.extent_ratio_max):
        return None
    width = db - da
    return Span(axis, width / 2.0 + da, width, (a.id, b.id))


def detect_room(
    x_planes: tuple[PlaneLandmark, PlaneLandmark],
    y_planes: tuple[PlaneLandmark, PlaneLandmark],
    cfg: RoomCriterionConfig,
) -> tuple[Span, Span] | None:
    """Room test on a 2+2 wall candidate: its x span and its y span.

    Both pairs must pass `_wall_pair`, and each wall must span roughly the
    perpendicular room width.
    """
    x_span = _wall_pair(*x_planes, PlaneClass.X_VERTICAL, cfg)
    y_span = _wall_pair(*y_planes, PlaneClass.Y_VERTICAL, cfg)
    if x_span is None or y_span is None:
        return None
    for walls, span in ((x_planes, y_span), (y_planes, x_span)):
        for wall in walls:
            length = float(np.max(wall.extent))
            if not (cfg.coverage_min * span.width <= length <= cfg.coverage_max * span.width):
                return None
    return x_span, y_span


def detect_corridor(pair: tuple[PlaneLandmark, PlaneLandmark], cfg: RoomCriterionConfig) -> Span | None:
    """Corridor test on a parallel wall pair of equal vertical class: the
    pair must pass `_wall_pair` and be at most `CORRIDOR_MAX_WIDTH` wide."""
    a, b = pair
    if a.plane_class is not b.plane_class or a.plane_class is PlaneClass.HORIZONTAL:
        return None
    span = _wall_pair(a, b, a.plane_class, cfg)
    if span is None or span.width > CORRIDOR_MAX_WIDTH:
        return None
    return span


def associate_room(graph: SGraph, candidate: tuple[Span, Span]) -> int:
    """Match a candidate's spans against mapped rooms by center distance.

    The gate scales with the room size: half the smaller width. Matching
    also requires widths that agree within `WIDTH_MATCH_TOL`, so a
    differently-shaped candidate near the same center is not folded in.
    Returns the matched id or NEW_ROOM.
    """
    best_id = NEW_ROOM
    best_dist = math.inf
    for room_id, room in graph.rooms.items():
        spans = [graph.spans[s] for s in room.spans]
        gate = min(s.width for s in spans) / 2.0
        dist = float(np.linalg.norm([s.center - c.center for s, c in zip(spans, candidate)]))
        if dist >= gate or dist >= best_dist:
            continue
        if any(abs(s.width - c.width) > WIDTH_MATCH_TOL for s, c in zip(spans, candidate)):
            continue
        best_dist = dist
        best_id = room_id
    return best_id


def merge_candidate_into_room(graph: SGraph, room_id: int, candidate: tuple[Span, Span]) -> int:
    """Merge duplicated wall landmarks of a re-detected room.

    For each wall slot where the candidate references a different landmark
    than the mapped room, the candidate's landmark is folded into the
    mapped one. Returns the number of merges performed.
    """
    merges = 0
    dup_ids = [p for span in candidate for p in span.walls]
    for keep_id, dup_id in zip(graph.node_walls(graph.rooms[room_id]), dup_ids):
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
            match = associate_room(graph, candidate)
            if match != NEW_ROOM:
                stats["merges"] += merge_candidate_into_room(graph, match, candidate)
                continue
            walls = {p for span in candidate for p in span.walls}
            if any(walls.intersection(graph.node_walls(r)) for r in graph.rooms.values()):
                continue
            # upgrade corridors whose walls are claimed by this room
            claimed = [c for c, k in graph.corridors.items() if walls.intersection(graph.node_walls(k))]
            for cid in claimed:
                graph.remove_corridor(cid)
            stats["upgrades"] += len(claimed)
            graph.add_node("room", candidate, information)
            stats["rooms_added"] += 1

    linked = {p for span in graph.spans.values() for p in span.walls}
    for group in (x_planes, y_planes):
        for pair in itertools.combinations(group, 2):
            if pair[0].id in linked or pair[1].id in linked:
                continue
            if pair[0].id not in graph.planes or pair[1].id not in graph.planes:
                continue
            candidate = detect_corridor(pair, cfg)
            if candidate is None:
                continue
            graph.add_node("corridor", (candidate,), information)
            linked.update(candidate.walls)
            stats["corridors_added"] += 1
    return stats

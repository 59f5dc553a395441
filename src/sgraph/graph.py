"""The three-layer situational graph: variables, factor bookkeeping and
plane data association."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .factors import (
    LOCAL_DIM,
    Factor,
    FactorKind,
    VariableKey,
    _plane_measurements,
    _pose_plane,
    _Values,
)
from .geometry import (
    Pose3,
    PlaneClass,
    PlaneMinimal,
    _planes_to_sensor,
    _sphere_frame,
    classify_plane,
    inverse_compose,
    to_minimal,
    transform_plane,
)
from .linearize import BatchedFactors
from .planes import PlaneDetection


@dataclass(frozen=True)
class KeyframePolicy:
    min_translation: float = 1.0
    min_rotation: float = 0.5


@dataclass
class Keyframe:
    id: int
    timestamp: float
    pose: Pose3  # map frame, optimized
    odom_pose: Pose3  # odometry frame, as reported
    odom_cov: np.ndarray  # 6x6 covariance of the incoming odometry increment
    # optional PointCloud kept for hard loop closure; not part of the value,
    # so snapshots leave it out
    scan: object = field(default=None, compare=False)


@dataclass
class PlaneLandmark:
    id: int
    params: PlaneMinimal  # map frame
    plane_class: PlaneClass
    extent: np.ndarray
    # which side of the stored plane the observer was on (+1/-1): the d >= 0
    # convention erases the facing direction, but room/corridor detection
    # needs to tell inward-facing wall pairs apart
    side: float = 1.0


@dataclass
class Span:
    """The gap between two facing walls along x or y: the solve's one
    topology variable."""

    axis: PlaneClass  # X_VERTICAL or Y_VERTICAL
    center: float  # meters along the axis
    width: float  # meters
    walls: tuple[int, int]  # plane ids of the low and the high wall

    def wall_slots(self) -> tuple[int, int]:
        """The edge slots of its low and its high wall (`factors._edge_slots`)."""
        return 2 * self.axis.index, 2 * self.axis.index + 1


@dataclass
class Node:
    """A room, named by its x span and its y span, or a corridor, by its one span."""

    spans: tuple[int, ...]


NEW_LANDMARK = -1
ASSOCIATION_GATE = 3.0  # Mahalanobis distance inside which a detection joins a mapped plane


@dataclass
class SGraph:
    keyframes: dict[int, Keyframe] = field(default_factory=dict)
    planes: dict[int, PlaneLandmark] = field(default_factory=dict)
    spans: dict[int, Span] = field(default_factory=dict)
    rooms: dict[int, Node] = field(default_factory=dict)
    corridors: dict[int, Node] = field(default_factory=dict)
    factors: list[Factor] = field(default_factory=list)
    _next_plane_id: int = 0
    _next_span_id: int = 0
    _next_room_id: int = 0
    _next_corridor_id: int = 0
    # the solve's layout, kept between solves (`solve_layout`); no part of
    # the graph's value, and `replace` starts a copy with an empty one
    _layout: BatchedFactors = field(default_factory=BatchedFactors, init=False, compare=False, repr=False)

    # -- variable access ---------------------------------------------------

    def _take_id(self, counter: str) -> int:
        """The next id of the counter named `counter`, which moves past it."""
        new_id = getattr(self, counter)
        setattr(self, counter, new_id + 1)
        return new_id

    def node_walls(self, node: Node) -> tuple[int, ...]:
        """The plane ids of a node's walls: low then high, span by span."""
        return tuple(p for s in node.spans for p in self.spans[s].walls)

    def predict_planes(self, kf_id: int) -> np.ndarray:
        """Every mapped plane in keyframe kf_id's sensor frame, from its
        current pose: (P, 4) rows of unit normal and distance >= 0, in
        `planes` order, moved as the pose-plane kernel moves them
        (`geometry._planes_to_sensor`)."""
        pose = self.keyframes[kf_id].pose
        az, el, d = np.array([lm.params.as_array() for lm in self.planes.values()]).reshape(-1, 3).T
        normals = _sphere_frame(az, el)[0]
        n_l, d_l, _ = _planes_to_sensor(pose.rotation.T[None], pose.translation[None], normals, d)
        return np.column_stack([n_l, d_l])

    # -- keyframe creation -------------------------------------------------

    def maybe_add_keyframe(
        self,
        odom_pose: Pose3,
        policy: KeyframePolicy,
        timestamp: float = 0.0,
        odom_information: np.ndarray | None = None,
    ) -> int | None:
        """Add a keyframe when motion since the last one exceeds the policy.

        The very first call anchors the map frame at the first odometry pose
        (keyframe 0 sits at the map origin). Consecutive keyframes are tied
        by an odometry factor carrying the relative odometry measurement.
        """
        if not self.keyframes:
            kf_id, pose, cov = 0, Pose3.identity(), np.zeros((6, 6))
        else:
            last = self.keyframes[max(self.keyframes)]
            rel = inverse_compose(last.odom_pose, odom_pose)
            trans = float(np.linalg.norm(rel.translation))
            rot = float(np.linalg.norm(rel.log()[3:6]))
            if trans < policy.min_translation and rot < policy.min_rotation:
                return None
            if odom_information is None:
                odom_information = np.eye(6) * 1e4
            info = np.asarray(odom_information, dtype=float)
            kf_id, pose, cov = last.id + 1, last.pose.compose(rel), np.linalg.inv(info)
            self.factors.append(
                Factor(
                    kind=FactorKind.ODOMETRY,
                    variables=(("kf", last.id), ("kf", kf_id)),
                    measurement=rel,
                    information=info,
                )
            )
        self.keyframes[kf_id] = Keyframe(kf_id, timestamp, pose, odom_pose, cov)
        return kf_id

    # -- plane landmarks ---------------------------------------------------

    def associate_plane(
        self,
        det: PlaneDetection,
        kf_id: int,
        gate: float,
        plane_information: np.ndarray,
    ) -> int:
        """Mahalanobis association of a detection against mapped planes.

        Returns the id of the nearest landmark strictly inside the gate,
        the first in `planes` order on a tie, or NEW_LANDMARK. Labels play
        no part: the gate alone separates perpendicular and opposite planes.
        One pose-plane kernel call predicts every landmark into the current
        sensor frame and compares it there against the detection, so the
        distance coordinate is not inflated by the robot's position in the
        map. The covariance is the measurement covariance plus the latest
        odometry-increment uncertainty pushed through the prediction.
        """
        if not self.planes:
            return NEW_LANDMARK
        kf = self.keyframes[kf_id]
        landmarks = list(self.planes.values())
        n = len(landmarks)
        planes = np.array([lm.params.as_array() for lm in landmarks])
        values = _Values(kf.pose.rotation[None], kf.pose.translation[None], planes, np.zeros((0, 2)))
        rows = np.column_stack([np.zeros(n, dtype=int), np.arange(n)])
        meas = _plane_measurements(np.tile(to_minimal(det.plane).as_array(), (n, 1)))
        diff, J = _pose_plane(values, rows, meas, True)
        J_pose = J[:, :, :6]
        meas_cov = np.linalg.inv(np.asarray(plane_information, dtype=float))
        cov = meas_cov + J_pose @ kf.odom_cov @ J_pose.transpose(0, 2, 1)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, np.linalg.solve(cov, diff[:, :, None])[:, :, 0]))
        inside = np.flatnonzero(dist < gate)
        if not inside.size:
            return NEW_LANDMARK
        return landmarks[inside[np.argmin(dist[inside])]].id

    def add_plane_observation(
        self,
        det: PlaneDetection,
        kf_id: int,
        plane_information: np.ndarray,
    ) -> int:
        """Associate a detection through the `ASSOCIATION_GATE`, creating a
        landmark when needed, and add the Huber-robust pose-plane factor.
        Returns the landmark id. A new landmark takes the label
        (`classify_plane`) of this first observation and keeps it."""
        lm_id = self.associate_plane(det, kf_id, ASSOCIATION_GATE, plane_information)
        if lm_id == NEW_LANDMARK:
            kf = self.keyframes[kf_id]
            map_plane = transform_plane(kf.pose, det.plane, to_sensor=False)
            lm_id = self._take_id("_next_plane_id")
            gap = float(map_plane.normal @ kf.pose.translation) - map_plane.distance
            self.planes[lm_id] = PlaneLandmark(
                id=lm_id,
                params=to_minimal(map_plane),
                plane_class=classify_plane(map_plane),
                extent=np.asarray(det.extent, dtype=float).copy(),
                side=1.0 if gap >= 0.0 else -1.0,
            )
        else:
            lm = self.planes[lm_id]
            lm.extent = np.maximum(lm.extent, det.extent)
        self.factors.append(
            Factor(
                kind=FactorKind.POSE_PLANE,
                variables=(("kf", kf_id), ("plane", lm_id)),
                measurement=to_minimal(det.plane),
                information=np.asarray(plane_information, dtype=float),
                robust=True,
            )
        )
        return lm_id

    def merge_planes(self, keep_id: int, drop_id: int) -> None:
        """Re-point every factor from drop_id to keep_id and delete it; a
        missing keep_id raises KeyError first."""
        if keep_id == drop_id or drop_id not in self.planes:
            return
        keep, drop = self.planes[keep_id], self.planes[drop_id]
        for f in self.factors:
            f.variables = tuple(
                ("plane", keep_id) if v == ("plane", drop_id) else v for v in f.variables
            )
        keep.extent = np.maximum(keep.extent, drop.extent)
        del self.planes[drop_id]
        for span in self.spans.values():
            span.walls = tuple(keep_id if p == drop_id else p for p in span.walls)

    # -- topology nodes ----------------------------------------------------

    def add_node(self, layer: str, spans: tuple[Span, ...], information: float) -> int:
        """Add a node to the "room" or the "corridor" layer. Each of its spans
        gets the next span id and one edge factor per wall, which measures
        the wall's slot; the node gets the next id of its layer. Returns
        that id."""
        edge = FactorKind(f"{layer}_plane")
        span_ids = tuple(self._take_id("_next_span_id") for _ in spans)
        for span_id, span in zip(span_ids, spans):
            self.spans[span_id] = span
            for slot, plane_id in zip(span.wall_slots(), span.walls):
                self.factors.append(
                    Factor(
                        kind=edge,
                        variables=(("span", span_id), ("plane", plane_id)),
                        measurement=slot,
                        information=np.array([[information]]),
                    )
                )
        node_id = self._take_id(f"_next_{layer}_id")
        {"room": self.rooms, "corridor": self.corridors}[layer][node_id] = Node(span_ids)
        return node_id

    def remove_corridor(self, corridor_id: int) -> None:
        """Delete a corridor, its span and the span's edge factors."""
        spans = self.corridors.pop(corridor_id).spans
        gone = {("span", s) for s in spans}
        self.factors = [f for f in self.factors if f.variables[0] not in gone]
        for s in spans:
            del self.spans[s]

    # -- the solve ---------------------------------------------------------

    def solve_layout(self) -> BatchedFactors:
        """The layout of the solve over the current variables and factors:
        the one this graph keeps, brought up to date by
        `BatchedFactors.absorb`, which takes in the factors added since the
        last call and starts again from empty after a merge or a removal."""
        self._layout.absorb(self)
        return self._layout

    # -- factor evaluation -------------------------------------------------

    def evaluate_factor(
        self, factor: Factor
    ) -> tuple[np.ndarray, dict[VariableKey, np.ndarray]]:
        """Raw residual and per-variable Jacobian blocks at the current
        estimates (no whitening, no robust weighting): the factor's row of
        the batched solve, its Jacobian split between its two variables."""
        first, second = factor.variables
        alone = BatchedFactors(replace(self, factors=[factor]))
        (b,) = alone.blocks
        r, J = b.spec.kernel(alone.values(self), b.rows, b.meas, True)
        split = LOCAL_DIM[first[0]]
        return r[0], {first: J[0, :, :split], second: J[0, :, split:]}

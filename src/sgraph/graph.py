"""The three-layer situational graph: variables, factor bookkeeping and
plane data association."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .factors import _NO_VALUES, LOCAL_DIM, Factor, FactorKind, VariableKey, _pose_plane
from .geometry import (
    Pose3,
    PlaneClass,
    PlaneMinimal,
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
    centroid: np.ndarray  # map frame
    observation_count: int = 1
    # which side of the stored plane the observer was on (+1/-1): the d >= 0
    # convention erases the facing direction, but room/corridor detection
    # needs to tell inward-facing wall pairs apart
    side: float = 1.0


@dataclass
class RoomNode:
    id: int
    center: np.ndarray  # (cx, cy) meters
    widths: np.ndarray  # (wx, wy) meters
    plane_links: tuple[int, int, int, int]  # low-x, high-x, low-y, high-y


@dataclass
class CorridorNode:
    id: int
    axis: PlaneClass  # X_VERTICAL or Y_VERTICAL
    center: np.ndarray  # (kx, ky); the cross-axis component is not optimized
    width: float
    plane_links: tuple[int, int]  # low, high along the axis


NEW_LANDMARK = -1


@dataclass
class SGraph:
    keyframes: dict[int, Keyframe] = field(default_factory=dict)
    planes: dict[int, PlaneLandmark] = field(default_factory=dict)
    rooms: dict[int, RoomNode] = field(default_factory=dict)
    corridors: dict[int, CorridorNode] = field(default_factory=dict)
    factors: list[Factor] = field(default_factory=list)
    _next_plane_id: int = 0
    _next_room_id: int = 0
    _next_corridor_id: int = 0

    # -- variable access ---------------------------------------------------

    def last_keyframe(self) -> Keyframe | None:
        if not self.keyframes:
            return None
        return self.keyframes[max(self.keyframes)]

    def predict_planes(self, kf_id: int) -> np.ndarray:
        """Every mapped plane in keyframe kf_id's sensor frame, from its
        current pose: (P, 4) rows of unit normal and distance >= 0, in
        `planes` order. Row i is `transform_plane(kf.pose,
        from_minimal(lm.params), to_sensor=True)` of the i-th landmark."""
        kf = self.keyframes[kf_id]
        az, el, d = np.array([lm.params.as_array() for lm in self.planes.values()]).reshape(-1, 3).T
        normals = _sphere_frame(az, el)[0]
        d = d - normals @ kf.pose.translation
        sign = np.where(d < 0.0, -1.0, 1.0)  # `flip_to_positive`, row by row
        return np.column_stack([(normals @ kf.pose.rotation) * sign[:, None], d * sign])

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
        if odom_information is None:
            odom_information = np.eye(6) * 1e4
        last = self.last_keyframe()
        if last is None:
            kf = Keyframe(
                id=0,
                timestamp=timestamp,
                pose=Pose3.identity(),
                odom_pose=odom_pose,
                odom_cov=np.zeros((6, 6)),
            )
            self.keyframes[0] = kf
            return 0
        rel = inverse_compose(last.odom_pose, odom_pose)
        trans = float(np.linalg.norm(rel.translation))
        rot = float(np.linalg.norm(rel.log()[3:6]))
        if trans < policy.min_translation and rot < policy.min_rotation:
            return None
        kf_id = last.id + 1
        info = np.asarray(odom_information, dtype=float)
        kf = Keyframe(
            id=kf_id,
            timestamp=timestamp,
            pose=last.pose.compose(rel),
            odom_pose=odom_pose,
            odom_cov=np.linalg.inv(info),
        )
        self.keyframes[kf_id] = kf
        self.factors.append(
            Factor(
                kind=FactorKind.ODOMETRY,
                variables=(("kf", last.id), ("kf", kf_id)),
                measurement=rel,
                information=info,
            )
        )
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

        Returns the id of the nearest same-class landmark strictly inside
        the gate, the first in `planes` order on a tie, or NEW_LANDMARK.
        One pose-plane kernel call predicts every candidate into the
        current sensor frame and compares it there against the detection,
        so the distance coordinate is not inflated by the robot's position
        in the map. The covariance is the measurement covariance plus the
        latest odometry-increment uncertainty pushed through the prediction.
        """
        kf = self.keyframes[kf_id]
        map_plane = transform_plane(kf.pose, det.plane, to_sensor=False)
        cls = classify_plane(map_plane)
        candidates = [lm for lm in self.planes.values() if lm.plane_class is cls]
        if not candidates:
            return NEW_LANDMARK
        n = len(candidates)
        values = replace(
            _NO_VALUES,
            rotations=kf.pose.rotation[None],
            translations=kf.pose.translation[None],
            planes=np.array([lm.params.as_array() for lm in candidates]),
        )
        rows = np.column_stack([np.zeros(n, dtype=int), np.arange(n)])
        meas = np.tile(to_minimal(det.plane).as_array(), (n, 1))
        diff, J = _pose_plane(values, rows, (meas,), True)
        J_pose = J[:, :, :6]
        meas_cov = np.linalg.inv(np.asarray(plane_information, dtype=float))
        cov = meas_cov + J_pose @ kf.odom_cov @ J_pose.transpose(0, 2, 1)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, np.linalg.solve(cov, diff[:, :, None])[:, :, 0]))
        inside = np.flatnonzero(dist < gate)
        if not inside.size:
            return NEW_LANDMARK
        return candidates[inside[np.argmin(dist[inside])]].id

    def add_plane_observation(
        self,
        det: PlaneDetection,
        kf_id: int,
        plane_information: np.ndarray,
        gate: float = 3.0,
    ) -> int:
        """Associate a detection, creating a landmark when needed, and add
        the Huber-robust pose-plane factor. Returns the landmark id."""
        kf = self.keyframes[kf_id]
        lm_id = self.associate_plane(det, kf_id, gate, plane_information)
        meas_minimal = to_minimal(det.plane)
        if lm_id == NEW_LANDMARK:
            map_plane = transform_plane(kf.pose, det.plane, to_sensor=False)
            lm_id = self._next_plane_id
            self._next_plane_id += 1
            gap = float(map_plane.normal @ kf.pose.translation) - map_plane.distance
            self.planes[lm_id] = PlaneLandmark(
                id=lm_id,
                params=to_minimal(map_plane),
                plane_class=classify_plane(map_plane),
                extent=np.asarray(det.extent, dtype=float).copy(),
                centroid=kf.pose.transform_point(det.centroid),
                side=1.0 if gap >= 0.0 else -1.0,
            )
        else:
            lm = self.planes[lm_id]
            lm.observation_count += 1
            lm.extent = np.maximum(lm.extent, det.extent)
            new_c = kf.pose.transform_point(det.centroid)
            lm.centroid = lm.centroid + (new_c - lm.centroid) / lm.observation_count
        self.factors.append(
            Factor(
                kind=FactorKind.POSE_PLANE,
                variables=(("kf", kf_id), ("plane", lm_id)),
                measurement=meas_minimal,
                information=np.asarray(plane_information, dtype=float),
                robust=True,
            )
        )
        return lm_id

    def merge_planes(self, keep_id: int, drop_id: int) -> None:
        """Re-point every factor from drop_id to keep_id and delete it."""
        if keep_id == drop_id or drop_id not in self.planes:
            return
        for f in self.factors:
            f.variables = tuple(
                ("plane", keep_id) if v == ("plane", drop_id) else v for v in f.variables
            )
        keep = self.planes[keep_id]
        drop = self.planes[drop_id]
        keep.extent = np.maximum(keep.extent, drop.extent)
        keep.observation_count += drop.observation_count
        del self.planes[drop_id]
        for node in (*self.rooms.values(), *self.corridors.values()):
            node.plane_links = tuple(keep_id if p == drop_id else p for p in node.plane_links)

    # -- topology nodes ----------------------------------------------------

    def add_node(self, node: RoomNode | CorridorNode, information: float) -> int:
        """Give a room or corridor node the next id of its kind and add one
        edge factor per wall slot, which measures the slot. Returns the id."""
        if isinstance(node, RoomNode):
            kind, nodes, edge = "room", self.rooms, FactorKind.ROOM_PLANE
            node.id, self._next_room_id = self._next_room_id, self._next_room_id + 1
        else:
            kind, nodes, edge = "corridor", self.corridors, FactorKind.CORRIDOR_PLANE
            node.id, self._next_corridor_id = self._next_corridor_id, self._next_corridor_id + 1
        nodes[node.id] = node
        for slot, plane_id in enumerate(node.plane_links):
            self.factors.append(
                Factor(
                    kind=edge,
                    variables=((kind, node.id), ("plane", plane_id)),
                    measurement=slot,
                    information=np.array([[information]]),
                )
            )
        return node.id

    def remove_corridor(self, corridor_id: int) -> None:
        self.factors = [
            f
            for f in self.factors
            if not (
                f.kind is FactorKind.CORRIDOR_PLANE
                and f.variables[0] == ("corridor", corridor_id)
            )
        ]
        self.corridors.pop(corridor_id, None)

    # -- factor evaluation -------------------------------------------------

    def evaluate_factor(
        self, factor: Factor
    ) -> tuple[np.ndarray, dict[VariableKey, np.ndarray]]:
        """Raw residual and per-variable Jacobian blocks at the current
        estimates (no whitening, no robust weighting): the factor's row of
        the batched solve, its Jacobian split between its two variables."""
        first, second = factor.variables
        alone = BatchedFactors(replace(self, factors=[factor]))
        ((_, r, J),) = alone.evaluate(alone.values(self))
        split = LOCAL_DIM[first[0]]
        return r[0], {first: J[0, :, :split], second: J[0, :, split:]}

"""Rigid-body poses, plane representations and frame transforms: the one
copy of each rotation and plane formula in the package.

Conventions used throughout the package:
  - A pose (R, t) maps points from its local frame to the parent frame:
    x_parent = R @ x_local + t.
  - Planes are stored in Hessian form n . x = d with ||n|| = 1 and d >= 0
    (closest-point convention), which removes the two-sided normal
    ambiguity.
  - The minimal plane parametrization is (azimuth, elevation, distance)
    with azimuth = atan2(n_y, n_x) and elevation = atan2(n_z, hypot(n_x, n_y)).
    A plane steps by (u_az, u_el, d_distance): the normal moves on the unit
    sphere along u_az e_az + u_el e_el, (e_az, e_el) its unit tangents along
    azimuth and elevation (`_sphere_frame`), and the distance is additive.

`skew` and `rot_exp` take one vector or a stack (..., 3). The helpers whose
names start with an underscore work on stacks of rows, for the factor
kernels and the solve. `rot_log`, `to_minimal` and `transform_plane` keep
scalar bodies beside their stacked forms `_rot_log`, `_retract_planes` and
`_planes_to_sensor`, which differ from them in the last bit on some inputs
(np.arccos, np.hypot, a stack of matrix products); `rot_log` feeds
`Pose3.log`, which keyframe selection and the simulator's odometry noise read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


_POLE_EPS = 5e-7  # |n_z| above 1 - eps (tilt < ~0.06 deg): azimuth fixed to 0


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices of stacked vectors (..., 3): skew(v) @ u == v x u."""
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1] = -v[..., 2]
    S[..., 0, 2] = v[..., 1]
    S[..., 1, 0] = v[..., 2]
    S[..., 1, 2] = -v[..., 0]
    S[..., 2, 0] = -v[..., 1]
    S[..., 2, 1] = v[..., 0]
    return S


def rot_exp(w: np.ndarray) -> np.ndarray:
    """Rotation matrices of stacked rotation vectors (..., 3) (Rodrigues)."""
    # a dot product per vector, as the 1-D `np.linalg.norm` takes, so a
    # stack's theta matches its rows' bit for bit; a sum of squares along
    # an axis does not
    theta = np.sqrt((w[..., None, :] @ w[..., :, None])[..., 0, 0])
    W = skew(w)
    # below 1e-10 the 2nd-order series, accurate to ~1e-20
    small = theta < 1e-10
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(safe) / safe)
    b = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))
    return np.eye(3) + a[..., None, None] * W + b[..., None, None] * (W @ W)


def rot_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix."""
    cos_theta = (np.trace(R) - 1.0) / 2.0
    cos_theta = min(1.0, max(-1.0, cos_theta))
    theta = math.acos(cos_theta)
    if theta < 1e-10:
        return np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / 2.0
    if theta > math.pi - 1e-6:
        # near pi: the symmetric part A of (R + I) / 2 is ~ n n^T, more
        # stable than sin division. Its largest diagonal entry A_ii ~ n_i^2
        # (at least 1/3) gives |n_i|, and its row i the rest of n,
        # n_j = A_ij / |n_i|, up to one common sign
        A = (R + R.T) / 4.0 + np.eye(3) / 2.0
        i = int(np.argmax(np.diag(A)))
        axis = A[i] / math.sqrt(max(A[i, i], 1e-12))
        axis = axis / np.linalg.norm(axis)
        # recover the sign of the axis from the skew part when it is informative
        w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
        if np.dot(w, axis) < 0.0:
            axis = -axis
        return theta * axis
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return w * (theta / (2.0 * math.sin(theta)))


def _rot_log(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`rot_log` on stacked rotations, and the mask of rows in its near-pi
    branch, which this leaves for the caller to evaluate."""
    w = np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]], 1)
    cos_theta = np.clip((np.trace(R, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    small = theta < 1e-10
    safe = np.where(small, 1.0, theta)
    out = np.where(small[:, None], w / 2.0, w * (safe / (2.0 * np.sin(safe)))[:, None])
    return out, theta > math.pi - 1e-6


def _right_jacobian_inv(w: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian of SO(3) at stacked rotation vectors."""
    theta = np.linalg.norm(w, axis=1)
    W = skew(w)
    WW = W @ W
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    cot_term = 1.0 / (safe * safe) - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe))
    second = np.where(small[:, None, None], WW / 12.0, cot_term[:, None, None] * WW)
    return np.eye(3) + 0.5 * W + second


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products."""
    return (M @ v[..., None])[..., 0]


@dataclass(frozen=True)
class Pose3:
    """Rigid-body pose: rotation matrix plus translation (meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(
            self, "translation", np.asarray(self.translation, dtype=float).reshape(3)
        )

    @staticmethod
    def identity() -> "Pose3":
        return Pose3(np.eye(3), np.zeros(3))

    @staticmethod
    def from_xyz_yaw(x: float, y: float, z: float, yaw: float) -> "Pose3":
        c, s = math.cos(yaw), math.sin(yaw)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return Pose3(R, np.array([x, y, z]))

    def log(self) -> np.ndarray:
        """6-vector [translation, rotation-vector] of this pose."""
        return np.concatenate([self.translation, rot_log(self.rotation)])

    def compose(self, other: "Pose3") -> "Pose3":
        return Pose3(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Pose3":
        Rt = self.rotation.T
        return Pose3(Rt, -Rt @ self.translation)


def inverse_compose(a: Pose3, b: Pose3) -> Pose3:
    """Relative pose of b expressed in frame a: (-) a (+) b."""
    return a.inverse().compose(b)


def align_rigid(src: np.ndarray, dst: np.ndarray) -> Pose3:
    """Closed-form rigid alignment (rotation + translation, no scale)
    minimizing ||R src + t - dst||^2 (Kabsch)."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    H = (src - mu_s).T @ (dst - mu_d)
    U, _, Vt = np.linalg.svd(H)
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ D @ U.T
    t = mu_d - R @ mu_s
    return Pose3(R, t)


class PlaneClass(Enum):
    """The axis a plane's normal points along; members in coordinate order."""

    X_VERTICAL = "x"
    Y_VERTICAL = "y"
    HORIZONTAL = "h"

    @property
    def index(self) -> int:
        """The coordinate of that axis: 0 is x, 1 is y and 2 is z."""
        return list(PlaneClass).index(self)


@dataclass(frozen=True)
class PlaneHessian:
    """Plane n . x = d with unit normal and d >= 0."""

    normal: np.ndarray
    distance: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float).reshape(3))
        object.__setattr__(self, "distance", float(self.distance))


@dataclass(frozen=True)
class PlaneMinimal:
    """Minimal 3-DoF plane parametrization (azimuth, elevation, distance)."""

    azimuth: float
    elevation: float
    distance: float

    def as_array(self) -> np.ndarray:
        return np.array([self.azimuth, self.elevation, self.distance])


def flip_to_positive(normal: np.ndarray, distance: float) -> tuple[np.ndarray, float]:
    """Enforce the closest-point convention d >= 0 by flipping both signs."""
    if distance < 0.0:
        return -np.asarray(normal), -distance
    return np.asarray(normal), distance


def transform_plane(pose: Pose3, plane: PlaneHessian, to_sensor: bool) -> PlaneHessian:
    """Move a plane across the frame defined by `pose` (= parent_from_local).

    to_sensor=True maps a parent-frame plane into the local (sensor) frame:
      n_out = R^T n,  d_out = d - t . n
    to_sensor=False is the inverse (sensor plane into the parent frame).
    Output is re-normalized to d >= 0.
    """
    if to_sensor:
        n = pose.rotation.T @ plane.normal
        d = plane.distance - float(pose.translation @ plane.normal)
    else:
        n = pose.rotation @ plane.normal
        d = plane.distance + float(pose.translation @ n)
    n, d = flip_to_positive(n, d)
    return PlaneHessian(n, d)


def to_minimal(p: PlaneHessian) -> PlaneMinimal:
    n = p.normal
    if abs(n[2]) > 1.0 - _POLE_EPS:
        # pole: azimuth is undefined, pinned to 0 by convention
        return PlaneMinimal(0.0, math.copysign(math.pi / 2.0, n[2]), p.distance)
    azimuth = math.atan2(n[1], n[0])
    elevation = math.atan2(n[2], math.hypot(n[0], n[1]))
    return PlaneMinimal(azimuth, elevation, p.distance)


def from_minimal(m: PlaneMinimal) -> PlaneHessian:
    ce = math.cos(m.elevation)
    n = np.array([ce * math.cos(m.azimuth), ce * math.sin(m.azimuth), math.sin(m.elevation)])
    return PlaneHessian(n, m.distance)


def classify_plane(p: PlaneHessian) -> PlaneClass:
    """Dominant-axis classification; ties resolved z >= x > y."""
    ax, ay, az = abs(p.normal[0]), abs(p.normal[1]), abs(p.normal[2])
    if az >= max(ax, ay):
        return PlaneClass.HORIZONTAL
    if ax > ay:
        return PlaneClass.X_VERTICAL
    return PlaneClass.Y_VERTICAL


def _sphere_frame(az: np.ndarray, el: np.ndarray) -> np.ndarray:
    """Unit normals at stacked (azimuth, elevation), and their unit tangents
    e_az and e_el along azimuth and elevation: an orthonormal frame, the
    pole included, as one (3, N, 3) array that unpacks into n, e_az, e_el."""
    ca, sa, ce, se = np.cos(az), np.sin(az), np.cos(el), np.sin(el)
    frame = np.empty((3, len(az), 3))
    n, e_az, e_el = frame
    n[:, 0], n[:, 1], n[:, 2] = ce * ca, ce * sa, se
    e_az[:, 0], e_az[:, 1], e_az[:, 2] = -sa, ca, 0.0
    e_el[:, 0], e_el[:, 1], e_el[:, 2] = -se * ca, -se * sa, ce
    return frame


def _planes_to_sensor(RT: np.ndarray, t: np.ndarray, n_m: np.ndarray, d_m: np.ndarray):
    """`transform_plane` into the sensor frame, row by row: stacked map
    planes (unit normals n_m, distances d_m) seen from poses (R, t), given
    R^T, one pose per row or one for all rows. Returns the normals and
    distances flipped to d >= 0, and the sign each row was flipped by."""
    n_l = _mv(RT, n_m)
    d_l = d_m - np.einsum("ij,ij->i", t, n_m)
    sign = np.where(d_l < 0.0, -1.0, 1.0)
    return n_l * sign[:, None], d_l * sign, sign


def _retract_planes(planes: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Stacked (azimuth, elevation, distance) moved by local steps
    (u_az, u_el, d_distance): the normal along the great circle of the
    tangent u_az e_az + u_el e_el, by its norm."""
    n, e_az, e_el = _sphere_frame(planes[:, 0], planes[:, 1])
    u = step[:, 0:1] * e_az + step[:, 1:2] * e_el
    theta = np.hypot(step[:, 0], step[:, 1])
    n = np.cos(theta)[:, None] * n + np.sinc(theta / math.pi)[:, None] * u
    return np.column_stack(
        [
            np.arctan2(n[:, 1], n[:, 0]),
            np.arctan2(n[:, 2], np.hypot(n[:, 0], n[:, 1])),
            planes[:, 2] + step[:, 2],
        ]
    )


def _axis_sign(planes: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Sign of each stacked plane's normal component along its axis (0 is
    x, 1 is y): the sign of the wall's signed distance along that axis."""
    ce = np.cos(planes[:, 1])
    component = np.where(axis == 0, ce * np.cos(planes[:, 0]), ce * np.sin(planes[:, 0]))
    return np.where(component >= 0.0, 1.0, -1.0)

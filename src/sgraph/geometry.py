"""Rigid-body poses, plane representations and frame transforms.

Conventions used throughout the package:
  - A pose (R, t) maps points from its local frame to the parent frame:
    x_parent = R @ x_local + t.
  - Planes are stored in Hessian form n . x = d with ||n|| = 1 and d >= 0
    (closest-point convention), which removes the two-sided normal
    ambiguity.
  - The minimal plane parametrization is (azimuth, elevation, distance)
    with azimuth = atan2(n_y, n_x) and elevation = atan2(n_z, hypot(n_x, n_y)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class DegeneratePlane(ValueError):
    """Raised when a plane parameter vector is too close to zero."""


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
    """Cross-product matrix: skew(v) @ u == v x u."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rot_exp(w: np.ndarray) -> np.ndarray:
    """Rotation matrix from a rotation vector (Rodrigues)."""
    theta = float(np.linalg.norm(w))
    W = skew(w)
    if theta < 1e-10:
        # 2nd-order series; accurate to ~1e-20 for theta < 1e-10
        return np.eye(3) + W + 0.5 * (W @ W)
    a = math.sin(theta) / theta
    b = (1.0 - math.cos(theta)) / (theta * theta)
    return np.eye(3) + a * W + b * (W @ W)


def rot_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix."""
    cos_theta = (np.trace(R) - 1.0) / 2.0
    cos_theta = min(1.0, max(-1.0, cos_theta))
    theta = math.acos(cos_theta)
    if theta < 1e-10:
        return np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / 2.0
    if theta > math.pi - 1e-6:
        # near pi: axis from the symmetric part, more stable than sin division
        A = (R + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diag(A), 0.0))
        # fix signs using off-diagonal terms
        i = int(np.argmax(axis))
        if axis[i] > 0:
            axis = axis / axis[i]
            for j in range(3):
                if j != i:
                    axis[j] = A[i, j] / (axis[i] * np.sqrt(np.maximum(A[i, i], 1e-12)))
        n = np.linalg.norm(axis)
        if n == 0.0:
            return np.zeros(3)
        axis = axis / n
        # recover the sign of the axis from the skew part when it is informative
        w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
        if np.dot(w, axis) < 0.0:
            axis = -axis
        return theta * axis
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return w * (theta / (2.0 * math.sin(theta)))


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

    def transform_point(self, p: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(p, dtype=float) + self.translation

    def retract(self, delta: np.ndarray) -> "Pose3":
        """Right-perturbation update: R <- R exp(dw), t <- t + R dt."""
        delta = np.asarray(delta, dtype=float)
        return Pose3(
            self.rotation @ rot_exp(delta[3:6]),
            self.translation + self.rotation @ delta[0:3],
        )

    def almost_equal(self, other: "Pose3", tol: float = 1e-9) -> bool:
        return (
            np.allclose(self.rotation, other.rotation, atol=tol)
            and np.allclose(self.translation, other.translation, atol=tol)
        )


def compose(a: Pose3, b: Pose3) -> Pose3:
    """Group composition a (+) b."""
    return a.compose(b)


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
    X_VERTICAL = "x"
    Y_VERTICAL = "y"
    HORIZONTAL = "h"


@dataclass(frozen=True)
class PlaneHessian:
    """Plane n . x = d with unit normal and d >= 0."""

    normal: np.ndarray
    distance: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float).reshape(3))
        object.__setattr__(self, "distance", float(self.distance))

    def point_distance(self, p: np.ndarray) -> float:
        return float(self.normal @ np.asarray(p, dtype=float) - self.distance)


@dataclass(frozen=True)
class PlaneMinimal:
    """Minimal 3-DoF plane parametrization (azimuth, elevation, distance)."""

    azimuth: float
    elevation: float
    distance: float

    def as_array(self) -> np.ndarray:
        return np.array([self.azimuth, self.elevation, self.distance])


def normalize_plane(pi: np.ndarray, eps: float = 1e-6) -> PlaneHessian:
    """Recover (n, d) from the scaled normal pi = n' * d'.

    The norm of pi is the (positive) plane distance and its direction the
    normal, which removes the double-sided sign ambiguity.
    """
    pi = np.asarray(pi, dtype=float).reshape(3)
    norm = float(np.linalg.norm(pi))
    if norm <= eps:
        raise DegeneratePlane(f"plane vector norm {norm:.3e} <= {eps:.3e}")
    return PlaneHessian(pi / norm, norm)


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

"""Factor definitions and the one copy of their residuals and analytic
Jacobians.

Each kernel evaluates every factor of one kind at once, on the estimates
gathered into arrays (`_Values`), with the stacked rotation and plane
helpers of `sgraph.geometry`. `KINDS` is the one table of what a factor
kind is: its graph layer, its kernel, the type of its measurement and how
a block's measurements stack into the kernel's arrays. `sgraph.linearize`
whitens, Huber-weights and scatters the kernels' output into the normal
equations, `SGraph.evaluate_factor` reads one factor's row of that solve,
and `SGraph.associate_plane` scores every mapped plane with the pose-plane
kernel.

Local coordinates per variable type:
  keyframe pose : 6  [dt (body frame), dw (rotation vector, right perturbation)]
  plane         : 3  [u_az, u_el, d_distance], the step on the unit sphere
                     that `sgraph.geometry` defines. (azimuth, elevation,
                     distance) is only how a plane is stored, so its pole
                     is not a singularity of the step.
  span          : 2  [d_center, d_width] along the span's axis

The topology has one variable, the span: the gap between two facing walls
along x or along y. A room is its x span and its y span, a corridor its one
span, so a room takes 4 columns and a corridor 2. One edge kernel,
`_span_plane`, serves the room-plane and the corridor-plane factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .geometry import (
    Pose3,
    PlaneMinimal,
    _axis_sign,
    _mv,
    _planes_to_sensor,
    _right_jacobian_inv,
    _rot_log,
    _sphere_frame,
    rot_log,
    skew,
)


class FactorKind(Enum):
    ODOMETRY = "odometry"
    POSE_PLANE = "pose_plane"
    ROOM_PLANE = "room_plane"
    CORRIDOR_PLANE = "corridor_plane"
    LOOP_CLOSURE = "loop_closure"


VariableKey = tuple[str, int]  # ("kf" | "plane" | "span", id)

# the columns of each variable kind, and of the spans of a room and a corridor
LOCAL_DIM = {"kf": 6, "plane": 3, "span": 2, "room": 4, "corridor": 2}

@dataclass
class Factor:
    kind: FactorKind
    variables: tuple[VariableKey, ...]
    measurement: object  # of the type `KINDS[kind].measurement`
    information: np.ndarray
    robust: bool = False


@dataclass(frozen=True)
class _Values:
    """Estimates gathered into arrays, rows in sorted-id order. The arrays
    are never written in place: a retraction builds new ones."""

    rotations: np.ndarray  # (K, 3, 3)
    translations: np.ndarray  # (K, 3)
    planes: np.ndarray  # (P, 3) azimuth, elevation, distance
    spans: np.ndarray  # (S, 2) center, width


Kernel = Callable[[_Values, np.ndarray, tuple, bool], tuple[np.ndarray, np.ndarray | None]]


def _edge_slots(slots: list) -> tuple[np.ndarray, np.ndarray]:
    """(axis, half) of each edge slot: slot s bounds a span along axis
    s // 2, on its low edge (half -0.5) when s is even, else its high edge
    (half +0.5). So 0 is low-x, 1 high-x, 2 low-y and 3 high-y."""
    for slot in slots:
        if not (isinstance(slot, (int, np.integer)) and 0 <= slot < 4):
            raise ValueError(f"invalid edge slot {slot!r}")
    slots = np.array(slots, dtype=int)
    return slots // 2, np.where(slots % 2 == 0, -0.5, 0.5)


# -- kernels: residuals (N, m) and Jacobians (N, m, D) over both variables ----


def _between(v: _Values, rows: np.ndarray, meas: tuple, jacobians: bool):
    """Relative-pose residual r = [R_m^T (t_pred - t_m); Log(R_m^T R_pred)],
    the prediction being pose b in the frame of pose a; columns
    [pose a (6) | pose b (6)].

    Rows whose error rotation is within 1e-6 of pi, where the batched log
    takes its angle from an ill-conditioned arccos, get their rotation
    residual from `geometry.rot_log`.
    """
    Rm, tm = meas
    RmT = Rm.transpose(0, 2, 1)
    Ra, ta = v.rotations[rows[:, 0]], v.translations[rows[:, 0]]
    Rb, tb = v.rotations[rows[:, 1]], v.translations[rows[:, 1]]
    RaT = Ra.transpose(0, 2, 1)
    Rp = RaT @ Rb
    tp = _mv(RaT, tb - ta)
    E = RmT @ Rp
    r_w, near_pi = _rot_log(E)
    for i in np.flatnonzero(near_pi):
        r_w[i] = rot_log(E[i])
    r = np.concatenate([_mv(RmT, tp - tm), r_w], axis=1)
    if not jacobians:
        return r, None
    Jinv = _right_jacobian_inv(r_w)
    J = np.zeros((len(rows), 6, 12))
    J[:, 0:3, 0:3] = -RmT
    J[:, 0:3, 3:6] = RmT @ skew(tp)
    J[:, 3:6, 3:6] = -Jinv @ Rp.transpose(0, 2, 1)
    J[:, 0:3, 6:9] = E
    J[:, 3:6, 9:12] = Jinv
    return r, J


def _pose_plane(v: _Values, rows: np.ndarray, meas: tuple, jacobians: bool):
    """Plane-observation residual; columns [pose (6) | plane (3)].

    The map plane is predicted into the sensor frame and flipped to the
    closest-point convention. The first two rows are the azimuth and
    elevation of the predicted normal in the frame [n, e_az, e_el] of the
    measured one, where the measurement sits at (0, 0). They are smooth
    at the poles of the stored (azimuth, elevation); their only singular
    points are a prediction at +-e_el, 90 degrees off, and the antipode,
    where the azimuth wraps: opposite normals differ by pi. The last row
    is the distance difference.
    """
    m, B = meas  # B: rows n, e_az, e_el of the measured frame
    RT = v.rotations[rows[:, 0]].transpose(0, 2, 1)
    t = v.translations[rows[:, 0]]
    planes = v.planes[rows[:, 1]]
    frame = _sphere_frame(planes[:, 0], planes[:, 1])
    # closest-point convention at the linearization point
    n_l, d_l, sign = _planes_to_sensor(RT, t, frame[0], planes[:, 2])
    x, y, z = _mv(B, n_l).T
    rho = np.hypot(x, y)
    r = np.empty((len(rows), 3))
    r[:, 0], r[:, 1], r[:, 2] = np.arctan2(y, x), np.arctan2(z, rho), d_l - m[:, 2]
    if not jacobians:
        return r, None

    # d(azimuth, elevation)/d(x, y, z) on the unit sphere, then d/d n_l
    Jang = np.zeros((len(rows), 2, 3))
    Jang[:, 0, 0] = -y / (rho * rho)
    Jang[:, 0, 1] = x / (rho * rho)
    Jang[:, 1, 0] = -x * z / rho
    Jang[:, 1, 1] = -y * z / rho
    Jang[:, 1, 2] = rho
    Jn = Jang @ B
    tangent = frame[1:].transpose(1, 2, 0).copy()  # (N, 3, 2) d n_m / d(u_az, u_el)

    J = np.zeros((len(rows), 3, 9))
    # pose perturbation R <- R exp(w^), t <- t + R u, and
    # sign * skew(n_l before the flip) == skew(n_l after it)
    J[:, 0:2, 3:6] = Jn @ skew(n_l)
    J[:, 2, 0:3] = -n_l
    J[:, 0:2, 6:8] = Jn @ (sign[:, None, None] * (RT @ tangent))
    J[:, 2, 6:8] = -sign[:, None] * (t[:, None, :] @ tangent)[:, 0]
    J[:, 2, 8] = sign
    return r, J


def _plane_measurements(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_pose_plane`'s `meas` for stacked (azimuth, elevation, distance)
    measurements: them, and the frame each is compared in, (N, 3, 3) with
    rows n, e_az, e_el (`_sphere_frame`)."""
    return m, _sphere_frame(m[:, 0], m[:, 1]).transpose(1, 0, 2).copy()


def _span_plane(v: _Values, rows: np.ndarray, meas: tuple, jacobians: bool):
    """Edge residual of a span's wall, r = center + half * width minus the
    plane's signed distance along the slot's axis, the sign taken from its
    normal; columns [span (2) | plane (3)]."""
    axis, half = meas
    spans, planes = v.spans[rows[:, 0]], v.planes[rows[:, 1]]
    sign = _axis_sign(planes, axis)
    r = (spans[:, 0] + half * spans[:, 1] - sign * planes[:, 2])[:, None]
    if not jacobians:
        return r, None
    J = np.zeros((len(rows), 1, 5))
    J[:, 0, 0] = 1.0
    J[:, 0, 1] = half
    J[:, 0, 4] = -sign
    return r, J


# -- the factor kinds --------------------------------------------------------


@dataclass(frozen=True)
class KindSpec:
    """What a factor kind is: the layer of the graph it belongs to, the
    kinds of the two variables it joins, its residual size, the kernel that
    evaluates it, the type its measurement has, and `stack`, which turns a
    list of its measurements into the kernel's `meas`."""

    layer: str
    variables: tuple[str, str]
    residual: int
    kernel: Kernel
    measurement: type
    stack: Callable[[list], tuple]


_TRACKING = KindSpec(
    "tracking",
    ("kf", "kf"),
    6,
    _between,
    Pose3,
    lambda meas: (np.array([m.rotation for m in meas]), np.array([m.translation for m in meas])),
)

# topology factors measure the slot of their plane; a room's and a
# corridor's differ only in their layer
_EDGE = KindSpec("room", ("span", "plane"), 1, _span_plane, int, _edge_slots)

# The kinds of one layer share one spec, so each layer is one block of the
# solve. The layers' order here is the order of the blocks, which fixes
# the summation order of the normal equations.
KINDS: dict[FactorKind, KindSpec] = {
    FactorKind.ODOMETRY: _TRACKING,
    FactorKind.LOOP_CLOSURE: _TRACKING,
    FactorKind.POSE_PLANE: KindSpec(
        "plane", ("kf", "plane"), 3, _pose_plane, PlaneMinimal,
        lambda meas: _plane_measurements(np.array([m.as_array() for m in meas])),
    ),
    FactorKind.ROOM_PLANE: _EDGE,
    FactorKind.CORRIDOR_PLANE: replace(_EDGE, layer="corridor"),
}

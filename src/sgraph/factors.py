"""Factor definitions and the one copy of their residuals and analytic
Jacobians.

Each kernel evaluates every factor of one kind at once, on the estimates
gathered into arrays (`_Values`), with the stacked rotation and plane
helpers of `sgraph.geometry`. `KINDS` is the one table of what a factor
kind is: its graph layer, its kernel, the type of its measurement and how
a block's measurements stack into the kernel's arrays. `sgraph.linearize`
whitens, Huber-weights and scatters the kernels' output into the normal
equations, `SGraph.evaluate_factor` reads one factor's row of that solve,
and `SGraph.associate_plane` scores its candidate landmarks with the
pose-plane kernel.

Local coordinates per variable type:
  keyframe pose : 6  [dt (body frame), dw (rotation vector, right perturbation)]
  plane         : 3  [u_az, u_el, d_distance], the step on the unit sphere
                     that `sgraph.geometry` defines. (azimuth, elevation,
                     distance) is only how a plane is stored, so its pole
                     is not a singularity of the step.
  room          : 4  [d_cx, d_cy, d_wx, d_wy]
  corridor      : 2  [d_center_along_axis, d_width]   (the cross-axis center
                     component is deliberately not optimized)

`_Values` holds each room and corridor as one row in this order, a block
of centers then a block of widths, so a step is added to it as it stands
and one edge kernel, `_edge_plane`, serves the room-plane and the
corridor-plane factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .geometry import (
    Pose3,
    PlaneMinimal,
    _axis_sign,
    _mv,
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


VariableKey = tuple[str, int]  # ("kf" | "plane" | "room" | "corridor", id)

LOCAL_DIM = {"kf": 6, "plane": 3, "room": 4, "corridor": 2}

@dataclass
class Factor:
    kind: FactorKind
    variables: tuple[VariableKey, ...]
    measurement: object  # of the type `KINDS[kind].measurement`
    information: np.ndarray
    robust: bool = False
    _sqrt_info: np.ndarray | None = field(default=None, repr=False, compare=False)

    def sqrt_information(self) -> np.ndarray:
        if self._sqrt_info is None:
            info = np.atleast_2d(np.asarray(self.information, dtype=float))
            self._sqrt_info = np.linalg.cholesky(info).T  # L^T, Lambda = L L^T
        return self._sqrt_info


@dataclass(frozen=True)
class _Values:
    """Estimates gathered into arrays, rows in sorted-id order. The arrays
    are never written in place: a retraction builds new ones."""

    rotations: np.ndarray  # (K, 3, 3)
    translations: np.ndarray  # (K, 3)
    planes: np.ndarray  # (P, 3) azimuth, elevation, distance
    rooms: np.ndarray  # (R, 4) cx, cy, wx, wy: the room's local coordinates
    corridors: np.ndarray  # (C, 2) center along the corridor axis, width
    corridor_axes: np.ndarray  # (C,) that axis, 0 is x and 1 is y; never retracted


Kernel = Callable[[_Values, np.ndarray, tuple, bool], tuple[np.ndarray, np.ndarray | None]]


def _edge_slots(slots: list, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(axis, half) of each slot of a `count`-slot node: slot s bounds axis
    s // 2, on its low edge (half -0.5) when s is even, else its high edge
    (half +0.5). Rooms have slots 0 low-x, 1 high-x, 2 low-y, 3 high-y, and
    a corridor has slots 0 (low) and 1 (high) along its own axis."""
    for slot in slots:
        if not (isinstance(slot, (int, np.integer)) and 0 <= slot < count):
            raise ValueError(f"invalid slot {slot!r} for a {count}-slot node")
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
    (m,) = meas
    RT = v.rotations[rows[:, 0]].transpose(0, 2, 1)
    t = v.translations[rows[:, 0]]
    planes = v.planes[rows[:, 1]]
    n_m, e_az, e_el = _sphere_frame(planes[:, 0], planes[:, 1])
    n_l = _mv(RT, n_m)
    d_l = planes[:, 2] - np.einsum("ij,ij->i", t, n_m)
    # closest-point convention at the linearization point
    sign = np.where(d_l < 0.0, -1.0, 1.0)
    n_l = n_l * sign[:, None]
    d_l = d_l * sign
    B = np.stack(_sphere_frame(m[:, 0], m[:, 1]), axis=1)  # rows n, e_az, e_el
    x, y, z = _mv(B, n_l).T
    rho = np.hypot(x, y)
    r = np.stack([np.arctan2(y, x), np.arctan2(z, rho), d_l - m[:, 2]], axis=1)
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
    tangent = np.stack([e_az, e_el], axis=2)  # (N, 3, 2) d n_m / d(u_az, u_el)

    J = np.zeros((len(rows), 3, 9))
    # pose perturbation R <- R exp(w^), t <- t + R u, and
    # sign * skew(n_l before the flip) == skew(n_l after it)
    J[:, 0:2, 3:6] = Jn @ skew(n_l)
    J[:, 2, 0:3] = -n_l
    J[:, 0:2, 6:8] = Jn @ (sign[:, None, None] * (RT @ tangent))
    J[:, 2, 6:8] = -sign[:, None] * (t[:, None, :] @ tangent)[:, 0]
    J[:, 2, 8] = sign
    return r, J


def _edge_plane(x: np.ndarray, col, axis, half: np.ndarray, planes: np.ndarray, jacobians: bool):
    """Edge residual of a node's wall, r = center + half * width minus the
    plane's signed distance along `axis`, the sign taken from its normal;
    columns [node (D) | plane (3)]. `x` holds the nodes' values (N, D),
    each a center block then a width block of D/2 entries, and `col` is
    the column of the center along `axis`."""
    n = np.arange(len(x))
    width = col + x.shape[1] // 2
    sign = _axis_sign(planes, axis)
    r = (x[n, col] + half * x[n, width] - sign * planes[:, 2])[:, None]
    if not jacobians:
        return r, None
    J = np.zeros((len(x), 1, x.shape[1] + 3))
    J[n, 0, col] = 1.0
    J[n, 0, width] = half
    J[:, 0, -1] = -sign
    return r, J


def _room_plane(v: _Values, rows: np.ndarray, meas: tuple, jacobians: bool):
    """Room-plane edge residual; columns [room (4) | plane (3)]."""
    axis, half = meas
    return _edge_plane(v.rooms[rows[:, 0]], axis, axis, half, v.planes[rows[:, 1]], jacobians)


def _corridor_plane(v: _Values, rows: np.ndarray, meas: tuple, jacobians: bool):
    """Corridor-plane edge residual along the corridor's axis; columns
    [corridor (2) | plane (3)]."""
    (half,) = meas
    corr = rows[:, 0]
    planes = v.planes[rows[:, 1]]
    return _edge_plane(v.corridors[corr], 0, v.corridor_axes[corr], half, planes, jacobians)


# -- the factor kinds --------------------------------------------------------


@dataclass(frozen=True)
class KindSpec:
    """What a factor kind is: the layer of the graph it belongs to, the
    kinds of the two variables it joins, the kernel that evaluates it, the
    type its measurement has, and `stack`, which turns a list of its
    measurements into the kernel's `meas`."""

    layer: str
    variables: tuple[str, str]
    kernel: Kernel
    measurement: type
    stack: Callable[[list], tuple]


_TRACKING = KindSpec(
    "tracking",
    ("kf", "kf"),
    _between,
    Pose3,
    lambda meas: (np.array([m.rotation for m in meas]), np.array([m.translation for m in meas])),
)

# The kinds of one layer share one spec, so each layer is one block of the
# solve. The layers' order here is the order of the blocks, which fixes
# the summation order of the normal equations.
KINDS: dict[FactorKind, KindSpec] = {
    FactorKind.ODOMETRY: _TRACKING,
    FactorKind.LOOP_CLOSURE: _TRACKING,
    FactorKind.POSE_PLANE: KindSpec(
        "plane", ("kf", "plane"), _pose_plane, PlaneMinimal,
        lambda meas: (np.array([m.as_array() for m in meas]),),
    ),
    # topology factors measure the slot of their plane
    FactorKind.ROOM_PLANE: KindSpec(
        "room", ("room", "plane"), _room_plane, int, lambda slots: _edge_slots(slots, 4)
    ),
    FactorKind.CORRIDOR_PLANE: KindSpec(
        "corridor", ("corridor", "plane"), _corridor_plane, int, lambda slots: _edge_slots(slots, 2)[1:]
    ),
}


# values of no variable, for `replace` to fill in the arrays a kernel reads
_NO_VALUES = _Values(*[np.zeros(0)] * 6)

"""Batched linearization of the whole graph, one factor kind at a time.

The kernels in `factors` evaluate one factor at a time and stay the
reference. Here the same residuals and Jacobians are computed for every
factor of a kind at once: between (odometry and loop closure), pose-plane,
room-plane and corridor-plane. They are whitened, Huber-weighted and
scattered into the dense normal equations. The same pass without Jacobians
gives the cost alone, per layer.

The solver works on the estimates gathered into arrays (`_Values`): it
gathers them once, retracts a damped step onto them in batch, and writes
the accepted result back into the graph once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .factors import LOCAL_DIM, FactorKind, VariableKey, pose_between_residual
from .geometry import PlaneClass, PlaneMinimal, Pose3
from .graph import SGraph

LAYER_OF_KIND = {
    FactorKind.ODOMETRY: "tracking",
    FactorKind.LOOP_CLOSURE: "tracking",
    FactorKind.POSE_PLANE: "plane",
    FactorKind.ROOM_PLANE: "room",
    FactorKind.CORRIDOR_PLANE: "corridor",
}
LAYERS = ("tracking", "plane", "room", "corridor")

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class _Values:
    """Estimates gathered into arrays, rows in sorted-id order. The arrays
    are never written in place: a retraction builds new ones."""

    rotations: np.ndarray  # (K, 3, 3)
    translations: np.ndarray  # (K, 3)
    planes: np.ndarray  # (P, 3) azimuth, elevation, distance
    room_centers: np.ndarray  # (R, 2)
    room_widths: np.ndarray  # (R, 2)
    corridor_centers: np.ndarray  # (C,) center component along the corridor axis
    corridor_widths: np.ndarray  # (C,)


Kernel = Callable[[_Values, np.ndarray, tuple, bool], tuple[np.ndarray, np.ndarray | None]]


@dataclass(frozen=True)
class FactorBlock:
    """All factors of one kind: index arrays, measurements and scatter maps."""

    layer: str
    factor_index: np.ndarray  # (N,) position of each row's factor in graph.factors
    kernel: Kernel
    rows: np.ndarray  # (N, 2) rows of the two variables in their value arrays
    meas: tuple  # kind-specific stacked measurements
    sqrt_info: np.ndarray  # (N, m, m)
    robust: np.ndarray  # (N,) bool
    g_keep: np.ndarray  # (N, D) Jacobian columns of non-gauge variables
    h_keep: np.ndarray  # (N, D, D) their pairs


# -- batched geometry --------------------------------------------------------


def _skew(v: np.ndarray) -> np.ndarray:
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1] = -v[..., 2]
    S[..., 0, 2] = v[..., 1]
    S[..., 1, 0] = v[..., 2]
    S[..., 1, 2] = -v[..., 0]
    S[..., 2, 0] = -v[..., 1]
    S[..., 2, 1] = v[..., 0]
    return S


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products."""
    return (M @ v[..., None])[..., 0]


def _rot_exp(w: np.ndarray) -> np.ndarray:
    """`geometry.rot_exp` on stacked rotation vectors, term by term."""
    # a dot product per row, as the 1-D `np.linalg.norm` takes, so theta
    # matches it bit for bit; a sum of squares along an axis does not
    theta = np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0])
    W = _skew(w)
    small = theta < 1e-10
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(safe) / safe)
    b = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))
    return np.eye(3) + a[:, None, None] * W + b[:, None, None] * (W @ W)


def _wrap(a: np.ndarray) -> np.ndarray:
    """`geometry.wrap_angle` on an array."""
    a = np.fmod(a, _TWO_PI)
    a = np.where(a <= -math.pi, a + _TWO_PI, a)
    return np.where(a > math.pi, a - _TWO_PI, a)


def _rot_log(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`geometry.rot_log` on stacked rotations, and the mask of rows in its
    near-pi branch, which this leaves for the caller to evaluate."""
    w = np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]], 1)
    cos_theta = np.clip((np.trace(R, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    small = theta < 1e-10
    safe = np.where(small, 1.0, theta)
    out = np.where(small[:, None], w / 2.0, w * (safe / (2.0 * np.sin(safe)))[:, None])
    return out, theta > math.pi - 1e-6


def _right_jacobian_inv(w: np.ndarray) -> np.ndarray:
    """`geometry.so3_right_jacobian_inv` on stacked rotation vectors."""
    theta = np.linalg.norm(w, axis=1)
    W = _skew(w)
    WW = W @ W
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    cot_term = 1.0 / (safe * safe) - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe))
    second = np.where(small[:, None, None], WW / 12.0, cot_term[:, None, None] * WW)
    return np.eye(3) + 0.5 * W + second


def _axis_sign(planes: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """`factors.plane_axis_sign` per row; axis 0 is x, 1 is y."""
    ce = np.cos(planes[:, 1])
    component = np.where(axis == 0, ce * np.cos(planes[:, 0]), ce * np.sin(planes[:, 0]))
    return np.where(component >= 0.0, 1.0, -1.0)


# -- kernels: residuals (N, m) and Jacobians (N, m, D) over both variables ----


def _between(v: _Values, rows: np.ndarray, meas: tuple, jacobians: bool):
    """`factors.pose_between_residual`; columns [pose a (6) | pose b (6)].

    Rows whose error rotation is within 1e-6 of pi, where `rot_log` takes
    its rotation angle from an ill-conditioned arccos, are evaluated by the
    scalar kernel so both paths agree there too.
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
    r = np.concatenate([_mv(RmT, tp - tm), r_w], axis=1)
    J = None
    if jacobians:
        Jinv = _right_jacobian_inv(r_w)
        J = np.zeros((len(rows), 6, 12))
        J[:, 0:3, 0:3] = -RmT
        J[:, 0:3, 3:6] = RmT @ _skew(tp)
        J[:, 3:6, 3:6] = -Jinv @ Rp.transpose(0, 2, 1)
        J[:, 0:3, 6:9] = E
        J[:, 3:6, 9:12] = Jinv
    for i in np.flatnonzero(near_pi):
        r[i], Ja, Jb = pose_between_residual(
            Pose3(Ra[i], ta[i]), Pose3(Rb[i], tb[i]), Pose3(Rm[i], tm[i])
        )
        if jacobians:
            J[i] = np.hstack([Ja, Jb])
    return r, J


def _pose_plane(v: _Values, rows: np.ndarray, meas: tuple, jacobians: bool):
    """`factors.pose_plane_residual`; columns [pose (6) | plane (3)]."""
    (m,) = meas
    RT = v.rotations[rows[:, 0]].transpose(0, 2, 1)
    t = v.translations[rows[:, 0]]
    az, el, d_m = v.planes[rows[:, 1]].T
    ca, sa, ce, se = np.cos(az), np.sin(az), np.cos(el), np.sin(el)
    n_m = np.stack([ce * ca, ce * sa, se], axis=1)
    n_l = _mv(RT, n_m)
    d_l = d_m - np.einsum("ij,ij->i", t, n_m)
    # closest-point convention at the linearization point
    sign = np.where(d_l < 0.0, -1.0, 1.0)
    n_l = n_l * sign[:, None]
    d_l = d_l * sign
    nx, ny, nz = n_l.T
    rho_l = np.hypot(nx, ny)
    # the predicted azimuth is pinned to zero near the pole
    az_l = np.where(rho_l >= 1e-3, np.arctan2(ny, nx), 0.0)
    r = np.stack(
        [_wrap(az_l - m[:, 0]), np.arctan2(nz, rho_l) - m[:, 1], d_l - m[:, 2]], axis=1
    )
    if not jacobians:
        return r, None

    # d(azimuth, elevation)/d(normal), zero near the pole as in
    # `factors._minimal_jacobian_wrt_normal`
    rho2 = nx * nx + ny * ny
    rho = np.sqrt(rho2)
    live = rho >= 1e-3
    rho2 = np.where(live, rho2, 1.0)
    rho_s = np.where(live, rho, 1.0)
    Jmin = np.zeros((len(rows), 2, 3))
    Jmin[:, 0, 0] = -ny / rho2
    Jmin[:, 0, 1] = nx / rho2
    Jmin[:, 1, 0] = -nx * nz / rho_s
    Jmin[:, 1, 1] = -ny * nz / rho_s
    Jmin[:, 1, 2] = rho
    Jmin[~live] = 0.0

    zero = np.zeros(len(rows))
    dn_daz = np.stack([-ce * sa, ce * ca, zero], axis=1)
    dn_del = np.stack([-se * ca, -se * sa, ce], axis=1)
    dnl = RT @ np.stack([dn_daz, dn_del], axis=2)  # (N, 3, 2)

    J = np.zeros((len(rows), 3, 9))
    # sign * skew(n_l before the flip) == skew(n_l after it)
    J[:, 0:2, 3:6] = Jmin @ _skew(n_l)
    J[:, 2, 0:3] = -n_l
    J[:, 0:2, 6:8] = Jmin @ (sign[:, None, None] * dnl)
    J[:, 2, 6] = sign * -np.einsum("ij,ij->i", t, dn_daz)
    J[:, 2, 7] = sign * -np.einsum("ij,ij->i", t, dn_del)
    J[:, 2, 8] = sign
    return r, J


def _room_plane(v: _Values, rows: np.ndarray, meas: tuple, jacobians: bool):
    """`factors.room_plane_residual`; columns [room (4) | plane (3)]."""
    axis, half = meas
    room = rows[:, 0]
    planes = v.planes[rows[:, 1]]
    sign = _axis_sign(planes, axis)
    edge = v.room_centers[room, axis] + half * v.room_widths[room, axis]
    r = (edge - sign * planes[:, 2])[:, None]
    if not jacobians:
        return r, None
    n = np.arange(len(rows))
    J = np.zeros((len(rows), 1, 7))
    J[n, 0, axis] = 1.0
    J[n, 0, 2 + axis] = half
    J[:, 0, 6] = -sign
    return r, J


def _corridor_plane(v: _Values, rows: np.ndarray, meas: tuple, jacobians: bool):
    """`factors.corridor_plane_residual`; columns [corridor (2) | plane (3)]."""
    axis, half = meas
    corr = rows[:, 0]
    planes = v.planes[rows[:, 1]]
    sign = _axis_sign(planes, axis)
    edge = v.corridor_centers[corr] + half * v.corridor_widths[corr]
    r = (edge - sign * planes[:, 2])[:, None]
    if not jacobians:
        return r, None
    J = np.zeros((len(rows), 1, 5))
    J[:, 0, 0] = 1.0
    J[:, 0, 1] = half
    J[:, 0, 4] = -sign
    return r, J


def _slot_half(slot: int, slots: int) -> float:
    if not (isinstance(slot, (int, np.integer)) and 0 <= slot < slots):
        raise ValueError(f"invalid slot {slot!r} for a {slots}-slot node")
    return -0.5 if slot % 2 == 0 else 0.5


# -- the batched graph -----------------------------------------------------


class BatchedFactors:
    """Per-kind index arrays over a fixed factor set and variable order.

    `offsets` maps each optimized variable to its first column in H;
    variables without an offset (the gauge keyframe) are held fixed. Build
    once per factor set; `values` gathers the graph's estimates, and the
    other methods work on gathered values until `write` stores them back.
    """

    def __init__(self, graph: SGraph, offsets: dict[VariableKey, int], dim: int):
        self.dim = dim
        self.ids = {
            "kf": sorted(graph.keyframes),
            "plane": sorted(graph.planes),
            "room": sorted(graph.rooms),
            "corridor": sorted(graph.corridors),
        }
        self.corridor_axis = np.array(
            [0 if graph.corridors[c].axis is PlaneClass.X_VERTICAL else 1 for c in self.ids["corridor"]],
            dtype=int,
        )
        row: dict[VariableKey, int] = {}
        # columns in H of each variable's local coordinates, by kind and
        # value row; -1 for the fixed gauge keyframe
        self.columns: dict[str, np.ndarray] = {}
        for kind, ids in self.ids.items():
            row.update(((kind, vid), i) for i, vid in enumerate(ids))
            first = np.array([offsets.get((kind, vid), -1) for vid in ids], dtype=int)[:, None]
            self.columns[kind] = np.where(first >= 0, first + np.arange(LOCAL_DIM[kind]), -1)

        by_layer: dict[str, list[int]] = {layer: [] for layer in LAYERS}
        for i, f in enumerate(graph.factors):
            if f.kind not in LAYER_OF_KIND:
                raise ValueError(f"unknown factor kind {f.kind}")
            by_layer[LAYER_OF_KIND[f.kind]].append(i)

        self.blocks: list[FactorBlock] = []
        # where each kept entry of the per-factor g and H blocks lands, for
        # all blocks in order; entries of the same cell are summed
        g_index, h_index = [np.zeros(0, int)], [np.zeros(0, int)]
        for layer, index in by_layer.items():
            if not index:
                continue
            factors = [graph.factors[i] for i in index]
            rows = np.array([[row[k] for k in f.variables] for f in factors], dtype=int)
            if layer == "tracking":
                kernel = _between
                meas = (
                    np.array([f.measurement.rotation for f in factors]),
                    np.array([f.measurement.translation for f in factors]),
                )
            elif layer == "plane":
                kernel = _pose_plane
                meas = (np.array([f.measurement.as_array() for f in factors]),)
            elif layer == "room":
                kernel = _room_plane
                meas = (
                    np.array([f.measurement // 2 for f in factors], dtype=int),
                    np.array([_slot_half(f.measurement, 4) for f in factors]),
                )
            else:
                kernel = _corridor_plane
                meas = (
                    self.corridor_axis[rows[:, 0]],
                    np.array([_slot_half(f.measurement, 2) for f in factors]),
                )
            kinds = [kind for kind, _ in factors[0].variables]
            cols = np.hstack([self.columns[kind][rows[:, j]] for j, kind in enumerate(kinds)])
            g_keep = cols >= 0
            h_keep = g_keep[:, :, None] & g_keep[:, None, :]
            g_index.append(cols[g_keep])
            h_index.append((cols[:, :, None] * dim + cols[:, None, :])[h_keep])
            self.blocks.append(
                FactorBlock(
                    layer=layer,
                    factor_index=np.array(index, dtype=int),
                    kernel=kernel,
                    rows=rows,
                    meas=meas,
                    sqrt_info=np.array([f.sqrt_information() for f in factors]),
                    robust=np.array([f.robust for f in factors], dtype=bool),
                    g_keep=g_keep,
                    h_keep=h_keep,
                )
            )
        self._g_index = np.concatenate(g_index)
        self._h_index = np.concatenate(h_index)

    def values(self, graph: SGraph) -> _Values:
        """The graph's current estimates, gathered into arrays."""
        poses = [graph.keyframes[k].pose for k in self.ids["kf"]]
        rooms = [graph.rooms[r] for r in self.ids["room"]]
        corridors = [graph.corridors[c] for c in self.ids["corridor"]]
        return _Values(
            rotations=np.array([p.rotation for p in poses]).reshape(-1, 3, 3),
            translations=np.array([p.translation for p in poses]).reshape(-1, 3),
            planes=np.array(
                [graph.planes[p].params.as_array() for p in self.ids["plane"]]
            ).reshape(-1, 3),
            room_centers=np.array([r.center for r in rooms], dtype=float).reshape(-1, 2),
            room_widths=np.array([r.widths for r in rooms], dtype=float).reshape(-1, 2),
            corridor_centers=np.array(
                [c.center[a] for c, a in zip(corridors, self.corridor_axis)], dtype=float
            ),
            corridor_widths=np.array([c.width for c in corridors], dtype=float),
        )

    def retract(self, v: _Values, delta: np.ndarray) -> _Values:
        """New values moved by `delta`, a step in the local coordinates of
        the columns of H: poses by `Pose3.retract`, the plane azimuth
        wrapped, everything else additive. The gauge keyframe stays put."""
        cols = self.columns["kf"]
        fixed = cols[:, :1] < 0
        step = np.where(cols >= 0, delta[cols], 0.0)
        planes = v.planes + delta[self.columns["plane"]]
        room = delta[self.columns["room"]]
        corridor = delta[self.columns["corridor"]]
        return _Values(
            rotations=np.where(
                fixed[:, :, None], v.rotations, v.rotations @ _rot_exp(step[:, 3:6])
            ),
            translations=np.where(
                fixed, v.translations, v.translations + _mv(v.rotations, step[:, 0:3])
            ),
            planes=np.column_stack([_wrap(planes[:, 0]), planes[:, 1:]]),
            room_centers=v.room_centers + room[:, 0:2],
            room_widths=v.room_widths + room[:, 2:4],
            corridor_centers=v.corridor_centers + corridor[:, 0],
            corridor_widths=v.corridor_widths + corridor[:, 1],
        )

    def write(self, graph: SGraph, v: _Values) -> None:
        """Store values into the graph's variables."""
        for i, k in enumerate(self.ids["kf"]):
            graph.keyframes[k].pose = Pose3(v.rotations[i].copy(), v.translations[i].copy())
        for i, p in enumerate(self.ids["plane"]):
            graph.planes[p].params = PlaneMinimal(*v.planes[i].tolist())
        for i, r in enumerate(self.ids["room"]):
            room = graph.rooms[r]
            room.center, room.widths = v.room_centers[i].copy(), v.room_widths[i].copy()
        for i, (c, axis) in enumerate(zip(self.ids["corridor"], self.corridor_axis)):
            corr = graph.corridors[c]
            # the cross-axis component of the center is not optimized
            center = np.array(corr.center, dtype=float)
            center[axis] = v.corridor_centers[i]
            corr.center, corr.width = center, float(v.corridor_widths[i])

    def evaluate(self, v: _Values, jacobians: bool = True):
        """Yield (block, r, J) per kind at the values `v`: raw residuals
        (N, m) and, with `jacobians`, Jacobians (N, m, D) whose columns are
        the local coordinates of the factor's two variables."""
        for b in self.blocks:
            yield (b, *b.kernel(v, b.rows, b.meas, jacobians))

    def _linearize(self, v: _Values, huber_delta: float, jacobians: bool):
        """Per-layer costs and, with Jacobians, the normal equations H, g."""
        costs = dict.fromkeys(LAYERS, 0.0)
        g_parts, h_parts = [np.zeros(0)], [np.zeros(0)]
        for b, r, J in self.evaluate(v, jacobians):
            wr = _mv(b.sqrt_info, r)
            s = np.einsum("ij,ij->i", wr, wr)
            cost = s.copy()
            scale = np.ones_like(s)
            outside = b.robust & (s > huber_delta * huber_delta)
            if outside.any():
                norm = np.sqrt(s[outside])
                cost[outside] = 2.0 * huber_delta * norm - huber_delta * huber_delta
                scale[outside] = np.sqrt(huber_delta / norm)
            costs[b.layer] += float(cost.sum())
            if not jacobians:
                continue
            wr = wr * scale[:, None]
            wJ = scale[:, None, None] * (b.sqrt_info @ J)
            wJT = wJ.transpose(0, 2, 1)
            g_parts.append(_mv(wJT, wr)[b.g_keep])
            h_parts.append((wJT @ wJ)[b.h_keep])
        if not jacobians:
            return costs, None, None
        dim = self.dim
        g = np.bincount(self._g_index, np.concatenate(g_parts), minlength=dim)
        H = np.bincount(self._h_index, np.concatenate(h_parts), minlength=dim * dim)
        return costs, H.reshape(dim, dim), g

    def layer_costs(self, v: _Values, huber_delta: float) -> dict[str, float]:
        """Robust cost per layer (tracking, plane, room, corridor), residuals only."""
        return self._linearize(v, huber_delta, jacobians=False)[0]

    def cost(self, v: _Values, huber_delta: float) -> float:
        return sum(self.layer_costs(v, huber_delta).values())

    def normal_equations(
        self, v: _Values, huber_delta: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """H = J^T J and g = J^T r over whitened, robust-weighted residuals,
        and the cost; the cost equals `cost()` at the same values."""
        costs, H, g = self._linearize(v, huber_delta, jacobians=True)
        return H, g, sum(costs.values())

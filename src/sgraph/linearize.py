"""The normal equations of the whole graph, one layer at a time.

`BatchedFactors` owns the layout of the solve: the rows of each variable
in the gathered arrays and its columns in H. The kernels that
`factors.KINDS` names compute the residuals and Jacobians of every factor
of a layer at once. Here they are whitened, Huber-weighted and scattered
into the dense normal equations; the same pass without Jacobians gives the
cost alone, per layer.

The solver works on the estimates gathered into arrays (`_Values`): it
gathers them once, retracts a damped step onto them in batch with the
stacked rotation and plane steps of `sgraph.geometry`, and writes the
accepted result back into the graph once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .factors import KINDS, LOCAL_DIM, Kernel, VariableKey, _Values
from .geometry import PlaneMinimal, Pose3, _mv, _retract_planes, rot_exp

if TYPE_CHECKING:
    from .graph import SGraph

# in block order
LAYERS = tuple(dict.fromkeys(spec.layer for spec in KINDS.values()))


@dataclass(frozen=True)
class FactorBlock:
    """All factors of one layer: index arrays, measurements and scatter maps."""

    layer: str
    factor_index: np.ndarray  # (N,) position of each row's factor in graph.factors
    kernel: Kernel
    rows: np.ndarray  # (N, 2) rows of the two variables in their value arrays
    meas: tuple  # kind-specific stacked measurements
    sqrt_info: np.ndarray  # (N, m, m)
    robust: np.ndarray  # (N,) bool
    g_keep: np.ndarray  # (N, D) Jacobian columns of non-gauge variables
    h_keep: np.ndarray  # (N, D, D) their pairs


# -- the batched graph -----------------------------------------------------


class BatchedFactors:
    """Per-layer index arrays over a graph's factors, and the layout of its
    variables.

    The gathered arrays (`_Values`) hold one row per variable, each kind
    in id order. The columns of H are the local coordinates of the
    keyframes, then of the planes, rooms and corridors, in the same order.
    The first keyframe, row 0, is the gauge: it has no columns (-1) and is
    held fixed. Build once per factor set; `values` gathers the graph's
    estimates, and the other methods work on gathered values until `write`
    stores them back.
    """

    def __init__(self, graph: SGraph):
        self.ids = {
            "kf": sorted(graph.keyframes),
            "plane": sorted(graph.planes),
            "room": sorted(graph.rooms),
            "corridor": sorted(graph.corridors),
        }
        row: dict[VariableKey, int] = {}
        # columns in H of each variable's local coordinates, by kind and row
        self.columns: dict[str, np.ndarray] = {}
        self.dim = 0
        for kind, ids in self.ids.items():
            row.update(((kind, vid), i) for i, vid in enumerate(ids))
            n = LOCAL_DIM[kind]
            free = np.arange(len(ids)) - (kind == "kf")  # -1 for the gauge
            first = self.dim + n * free[:, None]
            self.columns[kind] = np.where(free[:, None] >= 0, first + np.arange(n), -1)
            self.dim += n * int(np.sum(free >= 0))

        by_layer: dict[str, list[int]] = {layer: [] for layer in LAYERS}
        for i, f in enumerate(graph.factors):
            by_layer[KINDS[f.kind].layer].append(i)

        self.blocks: list[FactorBlock] = []
        # where each kept entry of the per-factor g and H blocks lands, for
        # all blocks in order; entries of the same cell are summed
        g_index, h_index = [np.zeros(0, int)], [np.zeros(0, int)]
        for layer, index in by_layer.items():
            if not index:
                continue
            factors = [graph.factors[i] for i in index]
            spec = KINDS[factors[0].kind]
            rows = np.array([[row[k] for k in f.variables] for f in factors], dtype=int)
            cols = np.hstack([self.columns[kind][rows[:, j]] for j, kind in enumerate(spec.variables)])
            g_keep = cols >= 0
            h_keep = g_keep[:, :, None] & g_keep[:, None, :]
            g_index.append(cols[g_keep])
            h_index.append((cols[:, :, None] * self.dim + cols[:, None, :])[h_keep])
            self.blocks.append(
                FactorBlock(
                    layer=layer,
                    factor_index=np.array(index, dtype=int),
                    kernel=spec.kernel,
                    rows=rows,
                    meas=spec.stack([f.measurement for f in factors]),
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
        axes = np.array([c.axis.index for c in corridors], dtype=int)
        return _Values(
            rotations=np.array([p.rotation for p in poses]).reshape(-1, 3, 3),
            translations=np.array([p.translation for p in poses]).reshape(-1, 3),
            planes=np.array(
                [graph.planes[p].params.as_array() for p in self.ids["plane"]]
            ).reshape(-1, 3),
            rooms=np.array([[*r.center, *r.widths] for r in rooms], dtype=float).reshape(-1, 4),
            corridors=np.array(
                [[c.center[a], c.width] for c, a in zip(corridors, axes)], dtype=float
            ).reshape(-1, 2),
            corridor_axes=axes,
        )

    def retract(self, v: _Values, delta: np.ndarray) -> _Values:
        """New values moved by `delta`, a step in the local coordinates of
        the columns of H: poses by the right perturbation R <- R exp(dw),
        t <- t + R dt, plane normals along great circles of the sphere,
        everything else additive. The gauge keyframe stays put."""
        cols = self.columns["kf"]
        fixed = cols[:, :1] < 0
        step = np.where(cols >= 0, delta[cols], 0.0)
        return replace(
            v,
            rotations=np.where(
                fixed[:, :, None], v.rotations, v.rotations @ rot_exp(step[:, 3:6])
            ),
            translations=np.where(
                fixed, v.translations, v.translations + _mv(v.rotations, step[:, 0:3])
            ),
            planes=_retract_planes(v.planes, delta[self.columns["plane"]]),
            rooms=v.rooms + delta[self.columns["room"]],
            corridors=v.corridors + delta[self.columns["corridor"]],
        )

    def write(self, graph: SGraph, v: _Values) -> None:
        """Store values into the graph's variables."""
        for i, k in enumerate(self.ids["kf"]):
            graph.keyframes[k].pose = Pose3(v.rotations[i].copy(), v.translations[i].copy())
        for i, p in enumerate(self.ids["plane"]):
            graph.planes[p].params = PlaneMinimal(*v.planes[i].tolist())
        for i, r in enumerate(self.ids["room"]):
            room = graph.rooms[r]
            room.center, room.widths = v.rooms[i, :2].copy(), v.rooms[i, 2:].copy()
        for i, c in enumerate(self.ids["corridor"]):
            corr = graph.corridors[c]
            # the cross-axis component of the center is not optimized
            center = np.array(corr.center, dtype=float)
            center[v.corridor_axes[i]] = v.corridors[i, 0]
            corr.center, corr.width = center, float(v.corridors[i, 1])

    def evaluate(self, v: _Values, jacobians: bool = True):
        """Yield (block, r, J) per layer at the values `v`: raw residuals
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

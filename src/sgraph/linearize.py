"""The normal equations of the whole graph, one layer at a time.

`BatchedFactors` owns the layout of the solve: the rows of each variable
in the gathered arrays and its columns, and the stacked measurements and
whitening of each layer's factors, which it keeps from one solve to the
next and extends with the factors added in between. The kernels that
`factors.KINDS` names compute the residuals and Jacobians of every factor
of a layer at once. `BatchedFactors.linearize` is the one place they are
called, once per block: it whitens and Huber-weights their rows and sums
the cost of each layer. The `Linearization` it returns keeps those rows
and scatters them into the dense normal equations on demand, g and H
each on first use, so a point that needs no step never builds H. The
same pass without Jacobians gives the costs alone.

The solver works on the estimates gathered into arrays (`_Values`): it
gathers them once, retracts a damped step onto them in batch with the
stacked rotation and plane steps of `sgraph.geometry`, and writes the
result back into the graph once, when a step was accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter, is_
from typing import TYPE_CHECKING

import numpy as np

from .factors import KINDS, LOCAL_DIM, Factor, KindSpec, VariableKey, _Values
from .geometry import PlaneMinimal, Pose3, _mv, _retract_planes, rot_exp

if TYPE_CHECKING:
    from .graph import SGraph

# in block order
LAYERS = tuple(dict.fromkeys(spec.layer for spec in KINDS.values()))


@dataclass(frozen=True)
class FactorBlock:
    """All factors of one layer: its `KindSpec`, index arrays, measurements and whitening."""

    spec: KindSpec  # the layer's, which all its kinds share
    rows: np.ndarray  # (N, 2) rows of the two variables in their value arrays
    meas: tuple  # kind-specific stacked measurements
    L: np.ndarray  # (N, m, m) Cholesky factor of each information L L^T
    robust: np.ndarray  # (N,) bool

    def extended(self, more: FactorBlock) -> FactorBlock:
        """This block's factors followed by those of `more`, of the same layer."""
        return replace(
            self,
            rows=np.concatenate([self.rows, more.rows]),
            meas=tuple(np.concatenate(pair) for pair in zip(self.meas, more.meas)),
            L=np.concatenate([self.L, more.L]),
            robust=np.concatenate([self.robust, more.robust]),
        )


def _block(factors: list[Factor], row: dict) -> FactorBlock:
    """The block of `factors`, all of one layer, their variables at the rows
    `row` gives."""
    spec = KINDS[factors[0].kind]
    return FactorBlock(
        spec=spec,
        rows=np.array([[row[k] for k in f.variables] for f in factors], dtype=int),
        meas=spec.stack([f.measurement for f in factors]),
        L=np.linalg.cholesky(np.array([f.information for f in factors], dtype=float)),
        robust=np.array([f.robust for f in factors], dtype=bool),
    )


class Linearization:
    """One pass of the kernels at a point: the robust cost of each layer
    (tracking, plane, room, corridor) in `costs`, and the whitened,
    Huber-weighted residual and Jacobian rows of each block. The normal
    equations over those rows, g = J^T r and H = J^T J without the gauge's
    columns, are built on first use, each once. A pass without Jacobians
    has the costs alone."""

    def __init__(self, costs: dict[str, float], rows: list | None, scatter: tuple):
        self.costs = costs
        self._rows = rows  # (wr, wJ) of each block, None without Jacobians
        self._scatter = scatter  # the layout's `_scatter` at the pass

    def _weighted(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._rows is None:
            raise ValueError("linearized without Jacobians: no normal equations")
        return self._rows

    @cached_property
    def g(self) -> np.ndarray:
        g_index, _, n, gauge = self._scatter
        parts = [_mv(wJ.transpose(0, 2, 1), wr).ravel() for wr, wJ in self._weighted()]
        return np.bincount(g_index, np.concatenate([np.zeros(0), *parts]), minlength=n)[gauge:]

    @cached_property
    def H(self) -> np.ndarray:
        _, h_index, n, gauge = self._scatter
        parts = [(wJ.transpose(0, 2, 1) @ wJ).ravel() for _, wJ in self._weighted()]
        H = np.bincount(h_index, np.concatenate([np.zeros(0), *parts]), minlength=n * n)
        return H.reshape(n, n)[gauge:, gauge:]


# -- the batched graph -----------------------------------------------------


class BatchedFactors:
    """Per-layer index arrays over a graph's factors, and the layout of its
    variables.

    The gathered arrays (`_Values`) hold one row per variable, each kind
    in id order. The columns are the local coordinates of the keyframes,
    then of the planes and the spans, in the same order. The first
    keyframe, row 0, is the gauge: H and g leave out its columns, the
    first six, so it is held fixed, and `dim` counts the rest.

    The layout persists: `absorb` takes in the factors a graph gained since
    the last call and keeps the rows, stacked measurements and whitening
    of the others, so a solve after every keyframe stacks each factor
    once (`SGraph.solve_layout` keeps one per graph). A factor's
    measurement, information and robust flag are read when it is
    absorbed. `values` gathers the graph's estimates, and the other
    methods work on gathered values until `write` stores them back.
    """

    def __init__(self, graph: SGraph | None = None):
        self._clear()
        if graph is not None:
            self.absorb(graph)

    def _clear(self) -> None:
        """Empty the layout: no variable and no factor absorbed."""
        self.ids: dict[str, list[int]] = {"kf": [], "plane": [], "span": []}
        self._row: dict[VariableKey, int] = {}
        self._blocks: dict[str, FactorBlock] = {}
        # the factors absorbed, and the variables tuple of each then
        self._factors: list[Factor] = []
        self._variables: list[tuple[VariableKey, ...]] = []

    def _extends(self, graph: SGraph, ids: dict[str, list[int]]) -> bool:
        """Whether the graph still holds what was absorbed: the same factor
        objects first, each on the variables tuple it had, and every kind's
        sorted ids starting with the ids laid out. `merge_planes` replaces
        the tuples, `remove_corridor` removes ids."""
        return (
            len(graph.factors) >= len(self._factors)
            and all(ids[kind][: len(old)] == old for kind, old in self.ids.items())
            and all(map(is_, graph.factors, self._factors))
            and all(map(is_, map(attrgetter("variables"), graph.factors), self._variables))
        )

    def absorb(self, graph: SGraph) -> None:
        """Bring the layout up to the graph: absorb the factors past those
        absorbed, block by block in layer order, after the rows of the new
        variables. When the graph no longer holds what was absorbed, start
        again from an empty layout. The columns are laid out afresh every
        call, since a new keyframe shifts those of every plane and span."""
        ids = {"kf": sorted(graph.keyframes), "plane": sorted(graph.planes), "span": sorted(graph.spans)}
        if not self._extends(graph, ids):
            self._clear()
        row = dict(self._row)
        for kind, kind_ids in ids.items():
            start = len(self.ids[kind])
            row.update(((kind, vid), i) for i, vid in enumerate(kind_ids[start:], start))
        new = graph.factors[len(self._factors):]
        by_layer: dict[str, list[Factor]] = {layer: [] for layer in LAYERS}
        for f in new:
            by_layer[KINDS[f.kind].layer].append(f)
        blocks = dict(self._blocks)
        for layer, factors in by_layer.items():
            if factors:
                part = _block(factors, row)
                blocks[layer] = blocks[layer].extended(part) if layer in blocks else part
        self._factors += new
        self._variables += [f.variables for f in new]
        self.ids, self._row, self._blocks = ids, row, blocks
        self.blocks = [blocks[layer] for layer in LAYERS if layer in blocks]

        # columns of each variable's local coordinates, by kind and row
        self.columns: dict[str, np.ndarray] = {}
        n_cols = 0
        for kind, kind_ids in ids.items():
            k = LOCAL_DIM[kind]
            self.columns[kind] = n_cols + k * np.arange(len(kind_ids))[:, None] + np.arange(k)
            n_cols += k * len(kind_ids)
        self._gauge = LOCAL_DIM["kf"] if ids["kf"] else 0
        self.dim = n_cols - self._gauge
        # where each entry of the per-factor g and H blocks lands, for all
        # blocks in order (entries of the same cell are summed), the number
        # of columns and the gauge's
        g_index, h_index = [np.zeros(0, int)], [np.zeros(0, int)]
        for b in self.blocks:
            cols = np.hstack([self.columns[kind][b.rows[:, j]] for j, kind in enumerate(b.spec.variables)])
            g_index.append(cols.ravel())
            h_index.append((cols[:, :, None] * n_cols + cols[:, None, :]).ravel())
        self._scatter = (np.concatenate(g_index), np.concatenate(h_index), n_cols, self._gauge)

    def values(self, graph: SGraph) -> _Values:
        """The graph's current estimates, gathered into arrays."""
        poses = [graph.keyframes[k].pose for k in self.ids["kf"]]
        spans = [graph.spans[s] for s in self.ids["span"]]
        return _Values(
            rotations=np.array([p.rotation for p in poses]).reshape(-1, 3, 3),
            translations=np.array([p.translation for p in poses]).reshape(-1, 3),
            planes=np.array(
                [graph.planes[p].params.as_array() for p in self.ids["plane"]]
            ).reshape(-1, 3),
            spans=np.array([[s.center, s.width] for s in spans], dtype=float).reshape(-1, 2),
        )

    def retract(self, v: _Values, delta: np.ndarray) -> _Values:
        """New values moved by `delta`, a step in the columns of H: poses by
        the right perturbation R <- R exp(dw), t <- t + R dt, plane normals
        along great circles of the sphere, spans additively. The gauge
        keyframe stays put."""
        delta = np.concatenate([np.zeros(self._gauge), delta])
        step = delta[self.columns["kf"]]
        rotations = v.rotations @ rot_exp(step[:, 3:6])
        translations = v.translations + _mv(v.rotations, step[:, 0:3])
        # the gauge's zero step would still turn its -0.0 entries into +0.0
        rotations[:1], translations[:1] = v.rotations[:1], v.translations[:1]
        return replace(
            v,
            rotations=rotations,
            translations=translations,
            planes=_retract_planes(v.planes, delta[self.columns["plane"]]),
            spans=v.spans + delta[self.columns["span"]],
        )

    def write(self, graph: SGraph, v: _Values) -> None:
        """Store values into the graph's variables."""
        for i, k in enumerate(self.ids["kf"]):
            graph.keyframes[k].pose = Pose3(v.rotations[i].copy(), v.translations[i].copy())
        for i, p in enumerate(self.ids["plane"]):
            graph.planes[p].params = PlaneMinimal(*v.planes[i].tolist())
        for i, s in enumerate(self.ids["span"]):
            span = graph.spans[s]
            span.center, span.width = v.spans[i].tolist()

    def linearize(self, v: _Values, huber_delta: float, jacobians: bool = True) -> Linearization:
        """One pass of each block's kernel at the values `v`: the robust cost
        per layer and the whitened, Huber-weighted rows that the normal
        equations are built from. Without `jacobians` the kernels give
        residuals only, and the `Linearization` has the costs alone; they
        are the same either way."""
        costs = dict.fromkeys(LAYERS, 0.0)
        rows = []
        for b in self.blocks:
            r, J = b.spec.kernel(v, b.rows, b.meas, jacobians)
            LT = b.L.transpose(0, 2, 1)
            wr = _mv(LT, r)
            s = np.einsum("ij,ij->i", wr, wr)
            cost = s.copy()
            scale = np.ones_like(s)
            outside = b.robust & (s > huber_delta * huber_delta)
            if outside.any():
                norm = np.sqrt(s[outside])
                cost[outside] = 2.0 * huber_delta * norm - huber_delta * huber_delta
                scale[outside] = np.sqrt(huber_delta / norm)
            costs[b.spec.layer] += float(cost.sum())
            if jacobians:
                rows.append((wr * scale[:, None], scale[:, None, None] * (LT @ J)))
        return Linearization(costs, rows if jacobians else None, self._scatter)

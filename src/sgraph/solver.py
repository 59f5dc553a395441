"""Damped Gauss-Newton (Levenberg-Marquardt) solver over the full graph.

The first keyframe is hard-fixed to pin the 6-DoF gauge freedom; all other
variables are updated in their local coordinates, laid out in the columns
of H by `BatchedFactors`, which the graph keeps from one solve to the next
(`SGraph.solve_layout`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .graph import SGraph


GRAD_TOL = 1e-12  # converged once the gradient's max-norm falls below it
INIT_LAMBDA = 1e-6  # the first damping

class SingularSystem(RuntimeError):
    def __init__(self, nullity: int):
        super().__init__(f"normal equations rank-deficient, null-space dim {nullity}")
        self.nullity = nullity


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 50
    rel_tol: float = 1e-12
    huber_delta: float = 1.0
    check_rank: bool = True


@dataclass
class SolverReport:
    """How one `optimize` call ended: `status` is "converged" (the gradient
    or the relative cost decrease fell below its tolerance), "stalled"
    (every damped try of an iteration raised the cost) or "max_iters";
    `accepted` and `rejected` count the damped tries."""

    initial_cost: float
    final_cost: float
    iterations: int
    status: str
    accepted: int
    rejected: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def layer_costs(graph: SGraph, huber_delta: float = 1.0) -> dict[str, float]:
    """Per-layer cost decomposition (odometry+loop, plane, room, corridor)."""
    factors = graph.solve_layout()
    return factors.linearize(factors.values(graph), huber_delta, jacobians=False).costs


def optimize(graph: SGraph, cfg: SolverConfig = SolverConfig()) -> SolverReport:
    """Levenberg-Marquardt over all variables; mutates the graph in place.

    The estimates are gathered into arrays once; each damped try retracts
    its step onto them and linearizes there, one kernel pass whose rows
    serve both its cost and, once accepted, the next iteration's g and H.
    H is built only to solve a step (or for `check_rank`), and the result
    is written back once at the end, only if a step was accepted.
    Accepted steps never increase the cost; termination on relative cost
    change, gradient norm, the iteration cap, or an iteration whose damped
    tries all fail.
    """
    if not graph.keyframes:
        raise ValueError("graph has no keyframes")
    factors = graph.solve_layout()
    values = factors.values(graph)
    lin = factors.linearize(values, cfg.huber_delta)
    cost = sum(lin.costs.values())
    if factors.dim == 0:
        return SolverReport(cost, cost, 0, "converged", 0, 0)
    if cfg.check_rank:
        eigs = np.linalg.eigvalsh(lin.H)
        scale = max(float(eigs[-1]), 1.0)
        nullity = int(np.sum(eigs < 1e-12 * scale))
        if nullity > 0:
            raise SingularSystem(nullity)

    initial_cost = cost
    lam = INIT_LAMBDA
    iters = accepted = rejected = 0
    status = "max_iters"
    diagonal = np.arange(factors.dim)
    for _ in range(cfg.max_iters):
        iters += 1
        g = lin.g
        if float(np.max(np.abs(g))) < GRAD_TOL:
            status = "converged"
            break
        # built once per point, and only at a point a step is solved from
        H = lin.H
        damping = np.maximum(np.diag(H), 1e-12)
        for _try in range(20):
            # H + lam diag(damping), damped in a Fortran-ordered copy that
            # the factorization then overwrites
            A = H.copy(order="F")
            A[diagonal, diagonal] += lam * damping
            try:
                c = cho_factor(A, overwrite_a=True, check_finite=False)
                delta = cho_solve(c, -g, check_finite=False)
            except np.linalg.LinAlgError:
                rejected += 1
                lam *= 10.0
                continue
            # an accepted try's linearization is the next iteration's, and a
            # rejected one is dropped before its g or H is built
            tried = factors.retract(values, delta)
            tried_lin = factors.linearize(tried, cfg.huber_delta)
            cost_new = sum(tried_lin.costs.values())
            if cost_new <= cost:
                accepted += 1
                lam = max(lam / 10.0, 1e-12)
                if (cost - cost_new) / max(cost, 1e-300) < cfg.rel_tol:
                    status = "converged"
                cost, values, lin = cost_new, tried, tried_lin
                break
            rejected += 1
            lam *= 10.0
        else:
            status = "stalled"
        if status != "max_iters":
            break
    if accepted:
        factors.write(graph, values)
    return SolverReport(initial_cost, cost, iters, status, accepted, rejected)

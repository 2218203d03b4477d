"""Level-set sweeps over electric potentials and the sparse-cut pipeline.

A sweep sorts vertices by potential and scores every prefix/suffix split by
conductance times a fractional power of volume. The sparse-cut finder wires
together the furthest-pair sketch, an accuracy-matched potential solve, and
the sweep, returning the best-scoring level cut with its certificate data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePotentialError
from .graph import CutStats, WeightedGraph
from .linalg import (LaplacianSolver, implied_potential_accuracy, required_solver_accuracy,
                     st_potential)
from .sketch import SketchConfig, furthest_pair

# The sweep's volume exponent is 1/2 − epsilon; the CLI, the partition's cuts
# and the charge-amortization floor of DecompositionConfig.for_graph use this.
DEFAULT_EPSILON = 0.25


@dataclass(frozen=True)
class CutResult:
    """Best level cut found by :func:`find_sparse_cut` plus audit data.

    ``certificate_c`` is the achieved score; ``target_c`` the score level the
    pipeline aimed for; ``approx_slack`` the additive resistance-bound slack
    incurred by sweeping an approximate potential.
    """
    subset: np.ndarray
    stats: CutStats
    epsilon: float
    certificate_c: float
    target_c: float
    source: int
    sink: int
    reff_estimate: float
    eta: float
    zeta: float
    approx_slack: float


@dataclass(frozen=True)
class _LevelProfile:
    """Scores of every level set of a potential, without the subsets.

    ``order`` lists the vertices by potential descending (ties by ascending
    id); level set i is ``order[: ends[i] + 1]``. Per level, ``inside`` says
    whether the stats describe that threshold set (else its complement), and
    ``boundary``, ``volume`` and ``scores`` are that side's figures.
    """
    order: np.ndarray
    ends: np.ndarray
    inside: np.ndarray
    boundary: np.ndarray
    volume: np.ndarray
    scores: np.ndarray

    def stats(self, i: int) -> CutStats:
        """Cut stats of level set i, materializing its (smaller) side."""
        end = self.ends[i] + 1
        side = self.order[:end] if self.inside[i] else self.order[end:]
        volume = self.volume[i]
        return CutStats(subset=np.sort(side), boundary_weight=self.boundary[i],
                        volume=volume,
                        conductance=self.boundary[i] / volume if volume > 0 else None)


def _level_profile(g: WeightedGraph, values, epsilon: float) -> _LevelProfile:
    if not (0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (g.n,):
        raise ValueError(f"potential has shape {values.shape}, expected ({g.n},)")
    if g.n < 2:
        raise DegeneratePotentialError("graph has fewer than 2 vertices")

    order = np.lexsort((np.arange(g.n), -values))
    ranked = values[order]
    # a level set ends where the sorted potential strictly drops
    ends = np.flatnonzero(~(ranked[:-1] <= ranked[1:]))
    if not ends.size:
        raise DegeneratePotentialError("all potentials are equal; no nontrivial level set")

    # Adding the vertex at position i to the threshold set puts its edges to
    # later vertices on the boundary and takes its edges to earlier ones off.
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    eu, ev, ew = g.edges()
    earlier = np.minimum(rank[eu], rank[ev])
    later = np.maximum(rank[eu], rank[ev])
    boundary = np.cumsum(np.bincount(earlier, ew, minlength=g.n)
                         - np.bincount(later, ew, minlength=g.n))[ends]
    volume = np.cumsum(g.degrees[order])[ends]
    inside = volume <= g.total_weight  # vol(G)/2
    volume = np.where(inside, volume, 2.0 * g.total_weight - volume)
    # scalar powers: numpy's vectorized power may round differently from
    # libm, and the scores pick the cut
    exponent = 0.5 - epsilon
    scores = np.array([b / v * v ** exponent if v > 0 else math.inf
                       for b, v in zip(boundary.tolist(), volume.tolist())])
    return _LevelProfile(order=order, ends=ends, inside=inside,
                         boundary=boundary, volume=volume, scores=scores)


def find_sparse_cut(g: WeightedGraph, epsilon: float = DEFAULT_EPSILON,
                    cfg: SketchConfig | None = None,
                    method: str = "auto") -> CutResult:
    """Best-scoring level cut of a far-pair electric potential.

    Pipeline: sketch a far pair (u, v); set the target score from their
    estimated resistance and degrees; pick the potential accuracy so the
    sweep tolerates the approximation; solve; sweep; return the level set
    with the minimal score (earliest threshold on ties). The returned cut is the
    best level cut of this potential in every case; the certificate fields
    let callers compare achieved against targeted score. One solver serves the
    sketch and the potential; its constructor rejects a disconnected graph.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    if not (0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    solver = LaplacianSolver(g, method)
    u, v, estimate = furthest_pair(g, cfg, solver)
    return _far_pair_cut(solver, epsilon, u, v, estimate)


def _far_pair_cut(solver: LaplacianSolver, epsilon: float,
                  u: int, v: int, estimate: float) -> CutResult:
    """The steps of :func:`find_sparse_cut` after the sketch, for a far pair
    (u, v) of the solver's graph with estimated resistance ``estimate``."""
    g = solver.graph
    deg_term = g.degrees[u] ** (-2 * epsilon) + g.degrees[v] ** (-2 * epsilon)
    target_c = math.sqrt(deg_term / (estimate * epsilon))

    # additive potential accuracy that keeps the approximation error term
    # dominated by the resistance bound itself, floored so the solve
    # tolerance stays representable; the solve's clamped zeta then implies
    # the accuracy the potential really has
    eta = deg_term / (epsilon * target_c * math.sqrt(96.0 * math.sqrt(g.m) * math.log(g.n)))
    zeta = required_solver_accuracy(g, max(eta, 1e-12 * estimate))
    eta = implied_potential_accuracy(g, zeta)

    prof = _level_profile(g, st_potential(solver, u, v, zeta), epsilon)
    best = int(np.argmin(prof.scores))
    stats = prof.stats(best)

    slack = eta * (48.0 * g.m ** (0.5 - epsilon) * math.log(g.n) + 2.0 * target_c) / target_c
    return CutResult(subset=stats.subset, stats=stats, epsilon=epsilon,
                     certificate_c=float(prof.scores[best]), target_c=target_c,
                     source=u, sink=v, reff_estimate=estimate,
                     eta=eta, zeta=zeta, approx_slack=float(slack))

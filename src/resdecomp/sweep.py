"""Level-set sweeps over electric potentials and the sparse-cut pipeline.

A sweep sorts vertices by potential and scores every prefix/suffix split by
conductance times a fractional power of volume. The sparse-cut finder wires
together the furthest-pair sketch, an accuracy-matched potential solve, and
the sweep, returning the best-scoring level cut with its certificate data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePotentialError
from .graph import CutStats, WeightedGraph
from .linalg import PotentialVector, SolverOptions, required_solver_accuracy, st_potential
from .sketch import SketchConfig, furthest_pair

# Gate constant for the certificate-soundness property: whenever the exact
# resistance diameter exceeds CERTIFICATE_DIAMETER_FACTOR times the sketch
# estimate driving the cut, the best sweep score is expected to stay below
# the target. Calibrated on the 2d-grid family (side 4..24, worst observed
# score/target 0.23; suite-wide worst 0.50) and frozen.
CERTIFICATE_DIAMETER_FACTOR = 1.0


@dataclass(frozen=True)
class SweepEntry:
    """One prefix split of the sweep; stats describe the smaller-volume side.

    ``threshold`` is the potential of the last vertex inside the threshold
    set, ``side`` records which side the stats describe ("threshold" or
    "complement"), and ``score`` = conductance · volume^(1/2 − epsilon).
    """
    threshold: float
    side: str
    stats: CutStats
    score: float


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
    target_c: float | None
    source: int
    sink: int
    reff_estimate: float
    eta: float
    zeta: float
    approx_slack: float


def _potential_values(g: WeightedGraph, p) -> np.ndarray:
    values = p.values if isinstance(p, PotentialVector) else np.asarray(p, dtype=np.float64)
    if values.shape != (g.n,):
        raise ValueError(f"potential has shape {values.shape}, expected ({g.n},)")
    return values


def sweep_level_sets(g: WeightedGraph, p, epsilon: float) -> list[SweepEntry]:
    """Score every level set of the potential ``p``.

    Vertices are sorted by potential descending (ties by ascending id) and
    one entry is produced per strict drop in the sorted values; boundary
    weight and volume are updated in O(deg) per vertex. Each entry reports
    the side with volume at most half the total.
    """
    if not (0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    values = _potential_values(g, p)
    if g.n < 2:
        raise DegeneratePotentialError("graph has fewer than 2 vertices")

    order = np.lexsort((np.arange(g.n), -values))
    half_volume = g.total_weight  # vol(G)/2
    in_set = np.zeros(g.n, dtype=bool)
    boundary = 0.0
    volume = 0.0
    entries: list[SweepEntry] = []
    for pos in range(g.n - 1):
        v = order[pos]
        nbrs, wts = g.neighbors(v)
        inside = in_set[nbrs]
        boundary += float(wts[~inside].sum()) - float(wts[inside].sum())
        in_set[v] = True
        volume += g.degrees[v]
        if values[v] <= values[order[pos + 1]]:
            continue  # tie: not a distinct sorted position
        if volume <= half_volume:
            side = "threshold"
            subset = np.sort(order[: pos + 1])
            side_volume = volume
        else:
            side = "complement"
            subset = np.sort(order[pos + 1:])
            side_volume = 2.0 * g.total_weight - volume
        conductance = boundary / side_volume if side_volume > 0 else None
        score = (conductance * side_volume ** (0.5 - epsilon)
                 if conductance is not None else math.inf)
        stats = CutStats(subset=subset, boundary_weight=boundary,
                         volume=side_volume, conductance=conductance)
        entries.append(SweepEntry(threshold=float(values[v]), side=side,
                                  stats=stats, score=float(score)))
    if not entries:
        raise DegeneratePotentialError("all potentials are equal; no nontrivial level set")
    return entries


def find_sparse_cut(g: WeightedGraph, epsilon: float = 0.25,
                    cfg: SketchConfig | None = None,
                    opts: SolverOptions | None = None) -> CutResult:
    """Best-scoring level cut of a far-pair electric potential.

    Pipeline: sketch a far pair (u, v); set the target score from their
    estimated resistance and degrees; pick the potential accuracy so the
    sweep tolerates the approximation; solve; sweep; return the entry with
    the minimal score (earliest threshold on ties). The returned cut is the
    best level cut of this potential in every case; the certificate fields
    let callers compare achieved against targeted score. A disconnected
    graph raises :class:`DisconnectedGraphError` from the sketch's solve.
    """
    cfg = cfg or SketchConfig()
    opts = opts or SolverOptions()
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    if not (0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    u, v, estimate = furthest_pair(g, cfg, opts)
    return _far_pair_cut(g, epsilon, opts, u, v, estimate)


def _far_pair_cut(g: WeightedGraph, epsilon: float, opts: SolverOptions,
                  u: int, v: int, estimate: float) -> CutResult:
    """The steps of :func:`find_sparse_cut` after the sketch, for a far pair
    (u, v) of the connected graph ``g`` with estimated resistance
    ``estimate``."""
    deg_term = g.degrees[u] ** (-2 * epsilon) + g.degrees[v] ** (-2 * epsilon)
    target_c = math.sqrt(deg_term / (estimate * epsilon))

    # additive potential accuracy that keeps the approximation error term
    # dominated by the resistance bound itself, floored so the solve
    # tolerance stays representable
    eta = deg_term / (epsilon * target_c * math.sqrt(96.0 * math.sqrt(g.m) * math.log(g.n)))
    eta = max(eta, 1e-12 * estimate)
    zeta = required_solver_accuracy(g, eta)

    potential = st_potential(g, u, v, replace(opts, zeta=zeta))
    entries = sweep_level_sets(g, potential, epsilon)
    scores = np.array([e.score for e in entries])
    best = entries[int(np.argmin(scores))]

    slack = potential.eta * (48.0 * g.m ** (0.5 - epsilon) * math.log(g.n) + 2.0 * target_c) / target_c
    return CutResult(subset=best.stats.subset, stats=best.stats, epsilon=epsilon,
                     certificate_c=best.score, target_c=target_c,
                     source=u, sink=v, reff_estimate=estimate,
                     eta=potential.eta, zeta=zeta, approx_slack=float(slack))

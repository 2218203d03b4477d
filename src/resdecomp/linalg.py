"""Laplacian assembly, accuracy-controlled linear solves, electric potentials,
and the dense effective-resistance oracle.

The solver contract is relative accuracy in the energy norm:
``‖x̂ − L†b‖_L ≤ ζ·‖L†b‖_L``. A dense Cholesky factorization of the reduced
system meets it trivially; the iterative path is preconditioned conjugate
gradient with a residual target derived below that is sufficient for the
same bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import ConvergenceError, DisconnectedGraphError, InfiniteResistanceError
from .graph import WeightedGraph

# Above this order the auto method switches from dense Cholesky to PCG.
DENSE_SOLVE_LIMIT = 2048
# Requested solve tolerances are clamped to [ZETA_FLOOR, ZETA_CAP]: below the
# floor the demanded accuracy is unattainable in double precision, and a cap
# keeps the value a valid relative tolerance.
ZETA_FLOOR = 1e-13
ZETA_CAP = 0.5


@dataclass(frozen=True)
class SolverOptions:
    """Accuracy and method selection for Laplacian solves.

    ``zeta`` is the relative energy-norm tolerance; ``method`` is one of
    "auto", "dense", "iterative". Every method is deterministic.
    """
    zeta: float = 1e-8
    max_iterations: int = 20000
    method: str = "auto"

    def __post_init__(self):
        if not (0 < self.zeta < 1):
            raise ValueError(f"zeta must lie in (0, 1), got {self.zeta}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.method not in ("auto", "dense", "iterative"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class PotentialVector:
    """Per-vertex electric potentials of a unit source->sink flow.

    Normalized so ``values[sink] == 0``. ``eta`` is the additive per-entry
    accuracy implied by the solve tolerance that produced the vector.
    """
    values: np.ndarray
    source: int
    sink: int
    eta: float


def assemble_laplacian(g: WeightedGraph) -> sp.csr_matrix:
    """Weighted Laplacian L = D - W as a sparse CSR matrix."""
    A = g.adjacency_matrix()
    L = sp.diags(g.degrees, format="csr") - A
    L.sort_indices()
    return L.tocsr()


def _offdiag_adjacency(L: sp.csr_matrix) -> sp.csr_matrix:
    A = (sp.diags(L.diagonal()) - L).tocsr()
    A.eliminate_zeros()
    return A


def _dense_factor(L: sp.csr_matrix):
    # Grounding the last vertex makes the reduced system positive definite
    # for a connected graph; the grounded solution is fixed up to the
    # constant shift removed by the caller.
    reduced = L.toarray()[:-1, :-1]
    return sla.cho_factor(reduced, check_finite=False)


def _pcg_scale(L: sp.csr_matrix, A: sp.csr_matrix) -> float:
    # Sufficient residual target for the energy-norm contract: with
    # e = L†b − x̂ and r = b − Lx̂ (both ⊥ 1) we have Le = r, hence
    #   ‖e‖_L² = ⟨r, L†r⟩ ≤ ‖r‖²/λ₂   and   ‖L†b‖_L² = ⟨b, L†b⟩ ≥ ‖b‖²/λmax,
    # so ‖r‖ ≤ ζ‖b‖·sqrt(λ₂/λmax) forces ‖e‖_L ≤ ζ‖L†b‖_L. λ₂ is replaced by
    # the certified lower bound min_w·(min_w/w(E))² and λmax by the
    # Gershgorin bound 2·max_v deg(v). Returns the factor sqrt(λ₂/λmax),
    # which depends on L only; ``A`` is the off-diagonal adjacency of L.
    diag = L.diagonal()
    minw = float(A.data.min())
    w_total = float(diag.sum()) / 2.0
    lam2_lb = minw * (minw / w_total) ** 2
    lam_max_ub = 2.0 * float(diag.max())
    return np.sqrt(lam2_lb / lam_max_ub)


def _pcg(L: sp.csr_matrix, b: np.ndarray, target: float, maxiter: int) -> np.ndarray:
    inv_diag = 1.0 / L.diagonal()
    x = np.zeros_like(b)
    r = b.copy()
    d = inv_diag * r
    delta = float(r @ d)
    resnorm = float(np.linalg.norm(r))
    it = 0
    while resnorm > target:
        if it >= maxiter:
            raise ConvergenceError(
                f"PCG did not reach residual {target:.3e} within {maxiter} iterations "
                f"(residual {resnorm:.3e})", residual=resnorm)
        q = L @ d
        alpha = delta / float(d @ q)
        x += alpha * d
        if (it + 1) % 50 == 0:
            r = b - L @ x  # periodic refresh against drift
        else:
            r -= alpha * q
        resnorm = float(np.linalg.norm(r))
        s = inv_diag * r
        delta_new = float(r @ s)
        d = s + (delta_new / delta) * d
        delta = delta_new
        it += 1
    x -= x.mean()
    return x


def _resolve_method(L: sp.csr_matrix, opts: SolverOptions) -> str:
    if opts.method != "auto":
        return opts.method
    return "dense" if L.shape[0] <= DENSE_SOLVE_LIMIT else "iterative"


def solve_laplacian(L: sp.csr_matrix, b: np.ndarray, opts: SolverOptions | None = None) -> np.ndarray:
    """Solve L x = b on the space orthogonal to the all-ones vector.

    Requires a connected underlying graph and a zero-sum right-hand side.
    The result satisfies the energy-norm accuracy contract for
    ``opts.zeta`` and is orthogonal to the all-ones vector.
    """
    b = np.asarray(b, dtype=np.float64)
    n = L.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},)")
    return solve_laplacian_many(L, b[None], opts)[0]


def solve_laplacian_many(L: sp.csr_matrix, B: np.ndarray, opts: SolverOptions | None = None) -> np.ndarray:
    """Solve L X[i] = B[i] for a batch of zero-sum right-hand-side rows.

    Same contract as :func:`solve_laplacian` per row; the dense path shares
    one factorization across the batch, the iterative path one residual
    bound.
    """
    opts = opts or SolverOptions()
    B = np.asarray(B, dtype=np.float64)
    n = L.shape[0]
    if B.ndim != 2 or B.shape[1] != n:
        raise ValueError(f"batch must have shape (k, {n}), got {B.shape}")
    sums = np.abs(B.sum(axis=1))
    if (sums > 1e-12 * np.maximum(1.0, np.abs(B).sum(axis=1))).any():
        raise ValueError("every right-hand side row must sum to zero")
    A = _offdiag_adjacency(L)
    ncomp, _ = csgraph.connected_components(A, directed=False)
    if ncomp > 1:
        raise DisconnectedGraphError(
            f"Laplacian has {ncomp} connected components; solve per component")
    if not B.any():  # includes n = 1, where A has no entries for the PCG bound
        return np.zeros_like(B)
    if _resolve_method(L, opts) == "dense":
        Y = sla.cho_solve(_dense_factor(L), B[:, :-1].T, check_finite=False).T
        X = np.hstack([Y, np.zeros((B.shape[0], 1))])
        X -= X.mean(axis=1, keepdims=True)
        return X
    scale = _pcg_scale(L, A)
    out = np.zeros_like(B)
    for i in range(B.shape[0]):
        if B[i].any():
            target = opts.zeta * float(np.linalg.norm(B[i])) * scale
            out[i] = _pcg(L, B[i], target, opts.max_iterations)
    return out


def required_solver_accuracy(g: WeightedGraph, eta: float, floor: float = ZETA_FLOOR) -> float:
    """Solve tolerance that guarantees additive per-entry potential accuracy
    ``eta``: zeta = eta * (min_e w)^2 / (w(E) * sqrt(m)), clamped to the
    representable range."""
    if g.m == 0:
        raise ValueError("graph has no edges")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    minw = g.min_weight()
    zeta = eta * minw ** 2 / (g.total_weight * np.sqrt(g.m))
    return float(min(max(zeta, floor), ZETA_CAP))


def implied_potential_accuracy(g: WeightedGraph, zeta: float) -> float:
    """Additive per-entry potential accuracy implied by solve tolerance
    ``zeta`` (the inverse of :func:`required_solver_accuracy`)."""
    if g.m == 0:
        raise ValueError("graph has no edges")
    minw = g.min_weight()
    return float(zeta * g.total_weight * np.sqrt(g.m) / minw ** 2)


def st_potential(g: WeightedGraph, s: int, t: int, opts: SolverOptions | None = None) -> PotentialVector:
    """Electric potentials for a unit flow injected at ``s`` and removed at
    ``t``, shifted so the sink potential is exactly zero."""
    opts = opts or SolverOptions()
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"vertices ({s}, {t}) out of range [0, {g.n})")
    if s == t:
        raise ValueError("source and sink must differ")
    b = np.zeros(g.n)
    b[s] = 1.0
    b[t] = -1.0
    x = solve_laplacian(assemble_laplacian(g), b, opts)
    values = x - x[t]
    values.flags.writeable = False
    return PotentialVector(values=values, source=s, sink=t,
                           eta=implied_potential_accuracy(g, opts.zeta))


def _component_labels(g: WeightedGraph) -> np.ndarray:
    _, labels = csgraph.connected_components(g.adjacency_matrix(), directed=False)
    return labels


def exact_reff(g: WeightedGraph, s: int, t: int) -> float:
    """Effective resistance between s and t by dense factorization.

    The brute-force oracle: intended for tests and verification at a few
    thousand vertices. Symmetric in (s, t) by construction.
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"vertices ({s}, {t}) out of range [0, {g.n})")
    if s == t:
        return 0.0
    labels = _component_labels(g)
    if labels[s] != labels[t]:
        raise InfiniteResistanceError(
            f"vertices {s} and {t} lie in different components; resistance is infinite")
    comp = np.flatnonzero(labels == labels[s])
    renumber = np.full(g.n, -1, dtype=np.int64)
    renumber[comp] = np.arange(comp.size)
    eu, ev, ew = g.edges()
    keep = (labels[eu] == labels[s]) & (labels[ev] == labels[s])
    k = comp.size
    L = np.zeros((k, k))
    cu, cv, cw = renumber[eu[keep]], renumber[ev[keep]], ew[keep]
    np.add.at(L, (cu, cu), cw)
    np.add.at(L, (cv, cv), cw)
    np.subtract.at(L, (cu, cv), cw)
    np.subtract.at(L, (cv, cu), cw)
    # canonical orientation keeps the result bit-identical under (s, t) swap
    a, bb = sorted((int(renumber[s]), int(renumber[t])))
    idx = np.arange(k) != bb  # ground the larger index
    rhs = np.zeros(k)
    rhs[a] = 1.0
    factor = sla.cho_factor(L[np.ix_(idx, idx)], check_finite=False)
    y = sla.cho_solve(factor, rhs[idx], check_finite=False)
    return float(y[a])


def exact_reff_matrix(g: WeightedGraph) -> np.ndarray:
    """All-pairs effective resistances via the dense pseudo-inverse."""
    if g.n == 0:
        return np.zeros((0, 0))
    if len(np.unique(_component_labels(g))) > 1:
        raise DisconnectedGraphError("resistance matrix requires a connected graph")
    L = assemble_laplacian(g).toarray()
    P = np.linalg.pinv(L, hermitian=True)
    d = np.diag(P)
    R = d[:, None] + d[None, :] - 2 * P
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 0.0)
    return np.maximum(R, 0.0)


def exact_resistance_diameter(g: WeightedGraph) -> float:
    """Maximum effective resistance over all vertex pairs (dense oracle)."""
    if g.n <= 1:
        return 0.0
    return float(exact_reff_matrix(g).max())


def lambda2_lower_bound(g: WeightedGraph) -> float:
    """Certified lower bound on the Laplacian spectral gap:
    min_e w · (min_e w / w(E))², with the universal constant fixed at 1."""
    if g.n == 0 or not np.all(_component_labels(g) == 0):
        raise DisconnectedGraphError("spectral gap bound requires a connected graph")
    if g.m == 0:
        # single-vertex graph: no spectral gap to bound
        raise ValueError("graph has no edges")
    minw = g.min_weight()
    return float(minw * (minw / g.total_weight) ** 2)

"""Multiplicative effective-resistance estimates from one source vertex.

The estimator writes Reff(u, v) = ``‖W^(1/2) B L†(e_u − e_v)‖²`` (B the signed
incidence matrix) and compresses the edge dimension with signed random
probes. Each probe is one Laplacian solve. A correction by the empirical
probe Gram matrix replaces the usual 1/k normalization; when the probe count
reaches the edge count the corrected estimate reproduces the quadratic form
exactly, so small graphs match the dense oracle while large graphs get
Johnson-Lindenstrauss-style concentration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import WeightedGraph
from .linalg import SolverOptions, assemble_laplacian, solve_laplacian, solve_laplacian_many

# Probe budget ceil(C * ln n / beta^2). C = 8 is a conservative
# Johnson-Lindenstrauss constant folding in a per-graph failure
# probability target of 1/n; accuracy is guarded by oracle tests,
# not by this constant alone.
PROBE_COUNT_CONSTANT = 8.0

DEFAULT_BETA = math.log(1.5)


@dataclass(frozen=True)
class SketchConfig:
    """Accuracy/seed knobs for resistance sketching.

    ``beta`` is the multiplicative tolerance: estimates aim for the
    two-sided bracket e^{-beta}·Reff <= A <= e^{beta}·Reff. ``probe_count``
    overrides the automatic ceil(C·ln n / beta²) budget when set.
    """
    beta: float = DEFAULT_BETA
    seed: int = 0
    probe_count: int | None = None

    def __post_init__(self):
        if not (self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.probe_count is not None and self.probe_count < 1:
            raise ValueError(f"probe_count must be positive, got {self.probe_count}")


def _num_probes(cfg: SketchConfig, n: int) -> int:
    if cfg.probe_count is not None:
        return cfg.probe_count
    return max(1, math.ceil(PROBE_COUNT_CONSTANT * math.log(max(n, 2)) / cfg.beta ** 2))


def approx_reff_from_source(g: WeightedGraph, u: int,
                            cfg: SketchConfig | None = None,
                            opts: SolverOptions | None = None) -> np.ndarray:
    """Estimates ``A[v] ≈ Reff(u, v)`` for every vertex.

    With probability at least 1 − 1/n over the probe randomness every
    entry satisfies the two-sided e^{±beta} bracket; when the probe count
    is at least m the estimates are exact up to solver accuracy.
    Deterministic for fixed (graph, cfg). A disconnected graph raises
    :class:`DisconnectedGraphError` from the probe solve.
    """
    cfg = cfg or SketchConfig()
    opts = opts or SolverOptions()
    if not (0 <= u < g.n):
        raise ValueError(f"source {u} out of range [0, {g.n})")
    if g.n == 1:
        return np.zeros(1)

    m = g.m
    k = _num_probes(cfg, g.n)
    rng = np.random.default_rng(cfg.seed)
    probes = (rng.integers(0, 2, size=(k, m)) * 2 - 1).astype(np.float64)

    eu, ev, ew = g.edges()
    sqrt_w = np.sqrt(ew)
    rows = np.concatenate([np.arange(m), np.arange(m)])
    cols = np.concatenate([eu, ev])
    vals = np.concatenate([sqrt_w, -sqrt_w])
    incidence = sp.csr_matrix((vals, (rows, cols)), shape=(m, g.n))

    L = assemble_laplacian(g)
    rhs = incidence.T.dot(probes.T).T  # rows B^T W^{1/2} q_i, each zero-sum
    Z = solve_laplacian_many(L, rhs, opts)

    diffs = Z - Z[:, [u]]                     # column v holds Q·W^{1/2}B·L†(e_u − e_v)
    gram = probes @ probes.T
    # one SVD serves both the pseudo-inverse and the rank
    U_, sv, Vt = np.linalg.svd(gram, hermitian=True)
    tol = sv.max() * k * np.finfo(float).eps if sv.size else 0.0
    rank = int((sv > tol).sum())
    inv = (Vt[:rank].T / sv[:rank]) @ U_[:, :rank].T
    estimates = (m / rank) * np.einsum("iv,iv->v", diffs, inv @ diffs)
    estimates[u] = 0.0

    # a vanishing estimate for v != u means the probes missed that
    # direction entirely; patch those entries with an exact pair solve
    bad = np.flatnonzero((estimates <= 0) & (np.arange(g.n) != u))
    for v in bad:
        rhs = np.zeros(g.n)
        rhs[u] = 1.0
        rhs[v] = -1.0
        x = solve_laplacian(L, rhs, opts)
        estimates[v] = x[u] - x[v]
    estimates.flags.writeable = False
    return estimates


def furthest_pair(g: WeightedGraph,
                  cfg: SketchConfig | None = None,
                  opts: SolverOptions | None = None) -> tuple[int, int, float]:
    """A vertex pair whose resistance is within a constant factor of the
    resistance diameter, plus its estimate.

    Fixes u = 0, sketches A(0, ·), and returns the argmax (ties to the
    smallest id). By the triangle inequality the true resistance of the
    returned pair is at least R_diam/(2·e^{2·beta}); when the sketch runs
    in its exact regime the factor improves to 1/2.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    estimates = approx_reff_from_source(g, 0, cfg, opts)
    v = int(np.argmax(estimates))
    return 0, v, float(estimates[v])

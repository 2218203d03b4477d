"""Multiplicative effective-resistance estimates from one source vertex.

The estimator writes Reff(u, v) = ``‖W^(1/2) B L†(e_u − e_v)‖²`` (B the signed
incidence matrix) and compresses the edge dimension with signed random
probes. Each probe is one Laplacian solve. A correction by the
pseudo-inverse of the empirical probe Gram matrix replaces the usual 1/k
normalization, so large graphs get Johnson-Lindenstrauss-style
concentration. That pseudo-inverse comes from one pivoted Cholesky
factorization of the Gram, and its rank is the number of pivots the
factorization accepts.

The bracket's width β is split between two errors. The probe solves get
the share γ = ``SOLVE_ERROR_SHARE``: each sketch asks them for the
accuracy ζ at which the solve error moves the square root of every
estimate by at most γ·β·sqrt(Reff), derived from the probe Gram (see
:func:`approx_reff_from_source`), never for a fixed ζ. At β ≤ 1, the only
β :class:`SketchConfig` admits, that is a factor within e^{±4γβ} on the
estimate, and the probes' own (Johnson-Lindenstrauss) error keeps the
rest, e^{±(1−4γ)β}. The probe budget C·ln n/β² is not resized for that
smaller rest: C is already a conservative constant. The rare patch solves,
for entries the probes missed, run at the same ζ.

Once the probe count k reaches the edge count m no compression is needed:
the corrected estimate would only reproduce the quadratic form exactly. In
this exact regime, when the solver forms its all-pairs resistance matrix
(``LaplacianSolver.reff_matrix`` decides), the sketch draws no probes and
returns row u of that matrix, which the solver keeps for the block
certificate. That n×n matrix is at most one row larger than the k×n array
it replaces, as k ≥ m ≥ n − 1. Otherwise the sketch draws min(k, m) probes.

Memory on the probe path: with k probes, a sketch holds the k×m probe
signs bit-packed (k·m/8 bytes), drawn a few rows at a time, and one k×n
array of probe solutions y_i = x_i − x_i(u). The right-hand sides are
built ``_PROBE_CHUNK`` rows per sparse product, or one row at a time in the
probe threads below. The dense and sparse-LU backends, and PCG when
ζ < 2⁻²³, build all k right-hand sides in the array's float64 rows and
solve them there in one call, which the direct backends take
``_ROW_CHUNK`` rows at a time. Otherwise PCG solves ``_PROBE_CHUNK`` rows
per call, each chunk in its own float64 array, and stores its rows as
float32, each scaled by the power of two that puts its largest entry in
[1/2, 1): half the bytes, at a rounding the solves leave room for (see
:func:`approx_reff_from_source`). Every PCG call starts from the same
energy ratio, 1/2, so the chunks are independent: when the Laplacian
has at least ``_POOL_MIN_NONZEROS`` nonzeros, n + 2m, they run on up to
``_PROBE_THREADS`` threads, with as many float64 chunks in flight, and
the bits do not depend on the thread count (see :func:`_pcg_probe_rows`).
The Gram correction then takes ``_CORRECTION_BLOCK`` vertex columns at a
time, float32 ones widened and unscaled. Every backend's solves add only
per-chunk temporaries.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotri, dpstrf

from .graph import WeightedGraph, _is_int
from .linalg import ZETA_FLOOR, LaplacianSolver, _solve_in_place

# Probe budget ceil(C * ln n / beta^2). C = 8 is a conservative
# Johnson-Lindenstrauss constant folding in a per-graph failure
# probability target of 1/n; accuracy is guarded by oracle tests,
# not by this constant alone.
PROBE_COUNT_CONSTANT = 8.0

DEFAULT_BETA = math.log(1.5)

# Share γ of the bracket's width β given to the probe solves: their error
# moves sqrt of an estimate by at most γ·β·sqrt(Reff).
SOLVE_ERROR_SHARE = 0.01

# Estimates within this relative distance of the largest count as tied for the
# far end: exact values tie exactly on symmetric graphs, and rounding must
# not break those ties.
TIE_TOLERANCE = 1e-9

# Probe rows drawn at a time, and probe columns per step of the Gram sum;
# both bound the sketch's temporaries. The chunk is even, so each chunk but
# the last takes whole 64-bit words of the bit generator; the block is a
# multiple of 8, so it takes whole bytes of the packed signs. On PCG's
# float32 path the chunk is also one solve call, the unit of work of the
# probe threads (see _pcg_probe_rows).
_PROBE_CHUNK = 16
_GRAM_BLOCK = 1024
# Threads that solve PCG probe chunks, at most; one per usable CPU.
_PROBE_THREADS = 2
# Below this many Laplacian nonzeros, n + 2m, the PCG probe chunks stay in
# the calling thread: the kernel's calls hold the interpreter lock, and on
# smaller graphs the threads mostly wait for it. Two threads against one,
# one sketch (README "BLAS threads"): rr(3000) (15.0k nonzeros) +2%,
# grid2d(60) (17.8k) +26%, rr(5000) (25.0k) +17%, rr(6000) (30.0k) +7%,
# grid2d(80) (31.7k) -14%, rr(10000) (50.0k) -11%, hypercube(12) (53.2k) -3%.
_POOL_MIN_NONZEROS = 30_000
# float32's unit roundoff: the share of ζ a float32 row's rounding takes
# (see _row_storage).
_FLOAT32_ROUNDING = 2.0 ** -24
# Vertex columns per step of the Gram correction: it bounds the correction's
# k×block temporaries. The product's last bits can depend on the block width.
_CORRECTION_BLOCK = 512


@dataclass(frozen=True)
class SketchConfig:
    """Accuracy/seed knobs for resistance sketching.

    ``beta`` is the multiplicative tolerance: estimates aim for the
    two-sided bracket e^{-beta}·Reff <= A <= e^{beta}·Reff, with
    0 < beta <= 1, the range the probe budget ceil(C·ln n / beta²) and the
    solves' share of the bracket are stated for. A beta so small that the
    budget is not finite raises ``ValueError`` when the budget is computed.
    ``seed`` must be an integer >= 0 (bools are not integers here), checked
    at construction even where no probe is drawn.
    """
    beta: float = DEFAULT_BETA
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.beta <= 1):  # NaN fails too
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _num_probes(cfg: SketchConfig, n: int) -> int:
    # divided by beta twice: beta² underflows to 0 for a tiny positive beta
    budget = PROBE_COUNT_CONSTANT * math.log(max(n, 2)) / cfg.beta / cfg.beta
    if not math.isfinite(budget):
        raise ValueError(f"beta {cfg.beta} asks for an unbounded number of probes")
    return math.ceil(budget)


def _probe_zeta(inv: np.ndarray, rank: int, m: int, beta: float) -> float:
    """Solve accuracy for the k probe solves of a sketch whose estimator
    matrix is M = (m/rank)·``inv``: ζ = γ·β / sqrt(ρ·k·m) with
    ρ = (m/rank)·max_i Σ_j |inv_ij| ≥ ‖M‖₂, raised to ``ZETA_FLOOR``; it
    never exceeds γ·β ≤ γ. :func:`approx_reff_from_source` says why it
    moves sqrt of each estimate by at most γ·β·sqrt(Reff)."""
    k = inv.shape[0]
    rho = (m / rank) * float(np.abs(inv).sum(axis=1).max())
    return max(SOLVE_ERROR_SHARE * beta / math.sqrt(rho * k * m), ZETA_FLOOR)


def _probe_system(g: WeightedGraph, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """k signed probes q_i ∈ {±1}^m drawn from ``seed``, bit-packed as k×⌈m/8⌉
    uint8 (bit 1 for +1, each row padded with 0 bits), and their k×k Gram.

    Sign j of probe i is bit 31 of the (i·m + j)-th 32-bit half of the bit
    generator's raw 64-bit words, low half first. That is the top bit of
    each 32-bit output, which is what ``Generator.integers(0, 2, size=(k, m))``
    returns, so the signs and the Gram are those of that one-shot draw, bit
    for bit.
    """
    m = g.m
    bitgen = np.random.default_rng(seed).bit_generator
    signs = np.empty((k, (m + 7) // 8), dtype=np.uint8)
    for start in range(0, k, _PROBE_CHUNK):
        stop = min(start + _PROBE_CHUNK, k)
        count = (stop - start) * m
        # little-endian words read as int32 pairs, low half first; a half
        # is negative exactly when its bit 31 is set
        halves = bitgen.random_raw((count + 1) // 2).astype("<u8", copy=False).view("<i4")
        signs[start:stop] = np.packbits((halves[:count] < 0).reshape(stop - start, m), axis=1)
    # The Gram of ±1 probes is integer-valued. Within a block every partial
    # sum is an integer of magnitude at most _GRAM_BLOCK < 2^24, so float32
    # products are exact; summed in float64 over blocks (entries at most
    # m < 2^53), the Gram is exact.
    gram = np.zeros((k, k))
    for start in range(0, m, _GRAM_BLOCK):
        block = np.unpackbits(signs[:, start // 8:(start + _GRAM_BLOCK) // 8], axis=1,
                              count=min(_GRAM_BLOCK, m - start)).astype(np.float32)
        block *= 2
        block -= 1
        gram += block @ block.T
    return signs, gram


def _gram_pinv(gram: np.ndarray) -> tuple[np.ndarray, int]:
    """The pseudo-inverse of the probe Gram and its rank, from one pivoted
    Cholesky factorization, which overwrites ``gram``.

    Every column of the sketch's k×n array lies in the Gram's range, where
    the inverse of its rank×rank block on the accepted pivots J, scattered
    into rows and columns J of a zero k×k matrix, acts as the
    pseudo-inverse. The transpose of the symmetric Gram is the same matrix
    in the Fortran order LAPACK factors in place; dpotri writes only the
    upper triangle.
    """
    k = gram.shape[0]
    factor, piv, rank, _ = dpstrf(gram.T, overwrite_a=True)
    lead, _ = dpotri(factor[:rank, :rank], overwrite_c=True)
    pivots = piv[:rank] - 1
    inv = np.zeros((k, k))
    inv[np.ix_(pivots, pivots)] = np.triu(lead) + np.triu(lead, 1).T
    return inv, rank


def _row_storage(solver: LaplacianSolver, zeta: float) -> tuple[type, float]:
    """The dtype of the sketch's probe solutions and the ζ their solves ask
    for, given the probe ζ: float32 rows and ζ − 2⁻²⁴ on PCG at ζ ≥ 2⁻²³,
    which leaves at least half of ζ to the solves; float64 rows and ζ
    itself elsewhere, where the solves run to rounding or ζ leaves too
    little room."""
    if solver.method == "iterative" and zeta >= 2 * _FLOAT32_ROUNDING:
        return np.float32, zeta - _FLOAT32_ROUNDING
    return np.float64, zeta


def _probe_rhs(incidence_t: sp.spmatrix, signs: np.ndarray, out: np.ndarray,
               width: int) -> None:
    """Write the right-hand sides ``Bᵀ W^{1/2} q_i`` of the packed probe rows
    ``signs`` into the rows of ``out``, ``width`` rows per sparse product,
    whose temporaries are m×width float64 arrays: m- and n-vectors at
    width 1. Any width gives the same bits."""
    m = incidence_t.shape[1]
    for start in range(0, len(signs), width):
        bits = np.unpackbits(signs[start:start + width], axis=1, count=m)
        q = np.ascontiguousarray(bits.T, dtype=np.float64)
        q *= 2
        q -= 1
        out[start:start + width] = incidence_t.dot(q).T


def _probe_workers() -> int:
    """Threads that solve the PCG probe chunks: ``_PROBE_THREADS``, or fewer
    on fewer usable CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(_PROBE_THREADS, cpus)


def _pcg_probe_rows(solver: LaplacianSolver, incidence_t: sp.spmatrix, signs: np.ndarray,
                    u: int, zeta: float, Y: np.ndarray) -> np.ndarray:
    """Solve the probes of the packed rows ``signs`` by PCG at ``zeta`` and
    write each y_i = x_i − x_i(u), times 2^−e_i, into float32 row i of ``Y``;
    returns the exponents e_i, those of each row's largest entry.

    Each ``_PROBE_CHUNK`` rows are one solve call on their own float64
    array. Every call starts from the same energy ratio (see :func:`_pcg`),
    so a chunk's bits do not depend on the other chunks, nor on the order
    they run in. When the Laplacian has at least ``_POOL_MIN_NONZEROS``
    nonzeros, n + 2m (the work of one matvec), the chunks run on
    :func:`_probe_workers` threads, one chunk per thread at a time; on
    smaller graphs the threads would mostly wait on the interpreter lock.
    Results are read in chunk order, so if chunks fail, the error of the
    lowest failing chunk is raised once the running chunks have ended: the
    error the sequential loop raises.
    """
    k, n = Y.shape
    exponents = np.empty(k, dtype=np.int32)
    workers = _probe_workers() if n + 2 * solver.graph.m >= _POOL_MIN_NONZEROS else 1
    # pooled workers build one right-hand side at a time, so each holds only
    # m-vector temporaries
    width = 1 if workers > 1 else _PROBE_CHUNK

    def solve_chunk(start: int) -> None:
        stop = min(start + _PROBE_CHUNK, k)
        rows = np.empty((stop - start, n))
        _probe_rhs(incidence_t, signs[start:stop], rows, width)
        _solve_in_place(solver, rows, zeta)
        rows -= rows[:, [u]]
        _, e = np.frexp(np.maximum(rows.max(axis=1), -rows.min(axis=1)))
        exponents[start:stop] = e
        Y[start:stop] = np.ldexp(rows, -e[:, None], out=rows)

    starts = range(0, k, _PROBE_CHUNK)
    if workers == 1:
        for start in starts:
            solve_chunk(start)
        return exponents

    from concurrent.futures import ThreadPoolExecutor

    solver._tree, solver._reduced  # built here, not raced for by the workers
    with ThreadPoolExecutor(workers) as pool:
        # read in chunk order; a failed chunk cancels those not yet started
        list(pool.map(solve_chunk, starts))
    return exponents


def approx_reff_from_source(g: WeightedGraph, u: int,
                            cfg: SketchConfig | None = None,
                            solver: LaplacianSolver | None = None) -> np.ndarray:
    """Estimates ``A[v] ≈ Reff(u, v)`` for every vertex.

    With probability at least 1 − 1/n over the probe randomness every
    entry satisfies the two-sided e^{±beta} bracket, of which the probe
    solves' error takes at most e^{±4γ·beta}, with γ = ``SOLVE_ERROR_SHARE``.
    When the probe count is at least m and ``solver.reff_matrix()`` forms
    the resistance matrix, no probes are drawn: the result is row u of that
    matrix, exact up to rounding. Deterministic for fixed (graph, cfg,
    solver method). ``solver`` must be built for ``g``, on one vertex too;
    by default an "auto" solver is built, and a disconnected graph raises
    :class:`DisconnectedGraphError` there.

    On the probe path the sketch draws k = min(⌈C·ln n/β²⌉, m) probes and
    runs every solve, the k probe solves and the patch solves alike, at the
    accuracy ζ of :func:`_probe_zeta`, except that on PCG with ζ ≥ 2⁻²³ the
    probe solves ask ζ_s = ζ − 2⁻²⁴ and their rows are stored as float32
    (elsewhere ζ_s = ζ and the rows stay float64). Why that moves sqrt of
    each estimate by at most γ·β·sqrt(Reff(u, v)):

    - row i solves L x_i = Bᵀ W^{1/2} q_i for the probe q_i ∈ {±1}^m;
    - ‖x_i‖²_L = q_iᵀ Π q_i ≤ ‖q_i‖² = m, where Π = W^{1/2} B L† Bᵀ W^{1/2}
      is a projection;
    - so the contract ‖x̂_i − x_i‖_L ≤ ζ_s·‖x_i‖_L moves each coordinate
      y_i = x_i(u) − x_i(v) by at most ζ_s·sqrt(m·Reff(u, v)), since
      |(e_u − e_v)ᵀ e| ≤ ‖e‖_L·sqrt(Reff(u, v));
    - a float32 row rounds each coordinate by at most 2⁻²⁴·|ŷ_i(v)| ≤
      2⁻²⁴·sqrt(m·Reff(u, v)), since ‖x̂_i‖_L ≤ ‖x_i‖_L ≤ sqrt(m): PCG
      eliminates an independent set V₂ exactly and runs conjugate gradient
      on the Schur complement S (see :func:`~resdecomp.linalg._pcg`), so
      ‖x̂_i‖²_L = ‖x̂_{i,1}‖²_S + ‖b̃_{i,2}‖² ≤ ‖x_{i,1}‖²_S + ‖b̃_{i,2}‖² =
      ‖x_i‖²_L, its reduced iterate x̂_{i,1} being the S-orthogonal
      projection of the reduced solution onto a Krylov space. The row
      is stored times 2^−e, e the binary exponent of its largest entry, so
      the largest stored entry lies in [1/2, 1) and every entry down to
      2⁻¹²⁶ of it is a normal float32, where rounding is relative. The
      scale is exact and is undone before the correction, so the bound
      holds at any weight scale, where an unscaled cast would underflow or
      overflow. Each coordinate moves by at most ζ·sqrt(m·Reff) in all;
    - the k-vector y of column v then moves by at most ζ·sqrt(k·m·Reff);
    - the estimate is yᵀ M y with M = (m/rank)·G⁺ positive semidefinite, so
      sqrt of it moves by at most sqrt(‖M‖₂)·ζ·sqrt(k·m·Reff) ≤
      sqrt(ρ)·ζ·sqrt(k·m·Reff) = γ·β·sqrt(Reff(u, v)).

    Why the same ζ keeps each patched entry within (1 ± ζ)·Reff(u, v), with
    ζ ≤ max(γ·β, ``ZETA_FLOOR``), well inside e^{±β}:

    - a patch row solves x = L†(e_u − e_v), with ‖x‖²_L = Reff(u, v);
    - so the contract moves the patched entry (e_u − e_v)ᵀx̂ by at most
      ‖e‖_L·sqrt(Reff) ≤ ζ·Reff;
    - ρ ≥ ‖M‖₂ ≥ (m/rank)/tr G = (m/rank)/(k·m), since every diagonal entry
      of G is ‖q_i‖² = m and rank ≤ m, so ρ·k·m ≥ 1 and γ·β/sqrt(ρ·k·m)
      ≤ γ·β before the floor.

    Only PCG takes ζ into account; the dense and sparse-LU backends solve to
    rounding whatever ζ is asked for.
    """
    cfg = cfg or SketchConfig()
    if not (_is_int(u) and 0 <= u < g.n):
        raise ValueError(f"source {u!r} must be an integer in range [0, {g.n})")
    if solver is not None and solver.graph is not g:
        raise ValueError("solver was built for a different graph")
    if g.n == 1:
        estimates = np.zeros(1)
        estimates.flags.writeable = False
        return estimates
    solver = solver or LaplacianSolver(g)

    m = g.m
    k = _num_probes(cfg, g.n)
    if k >= m and (R := solver.reff_matrix()) is not None:
        estimates = R[u].copy()
        estimates.flags.writeable = False
        return estimates
    # m probes already give the quadratic form exactly
    k = min(k, m)
    signs, gram = _probe_system(g, k, cfg.seed)
    # before the solves, which take their accuracy from it
    inv, rank = _gram_pinv(gram)
    del gram  # factored in place
    zeta = _probe_zeta(inv, rank, m, cfg.beta)

    eu, ev, ew = g.edges()
    sqrt_w = np.sqrt(ew)
    incidence_t = sp.csr_matrix((np.concatenate([sqrt_w, -sqrt_w]),
                                 (np.tile(np.arange(m), 2), np.concatenate([eu, ev]))),
                                shape=(m, g.n)).T
    # the sketch's one k×n array: row i becomes y_i, whose column v holds
    # Q·W^{1/2}B·L†(e_v − e_u), as float32 times 2^−e_i or as float64
    dtype, solve_zeta = _row_storage(solver, zeta)
    store32 = dtype == np.float32
    Y = np.empty((k, g.n), dtype=dtype)
    if store32:
        exponents = _pcg_probe_rows(solver, incidence_t, signs, u, solve_zeta, Y)
    else:
        _probe_rhs(incidence_t, signs, Y, _PROBE_CHUNK)
        _solve_in_place(solver, Y, solve_zeta)
        Y -= Y[:, [u]]
    estimates = np.empty(g.n)
    for start in range(0, g.n, _CORRECTION_BLOCK):
        block = Y[:, start:start + _CORRECTION_BLOCK]
        if store32:
            block = np.ldexp(block, exponents[:, None], dtype=np.float64)
        estimates[start:start + _CORRECTION_BLOCK] = np.einsum("iv,iv->v", block, inv @ block)
    estimates *= m / rank
    estimates[u] = 0.0

    # a vanishing estimate for v != u means the probes missed that
    # direction entirely; patch those entries with one batch of exact pair
    # solves, rows e_u − e_v, at the probes' ζ
    bad = np.flatnonzero((estimates <= 0) & (np.arange(g.n) != u))
    if bad.size:
        rows = np.arange(bad.size)
        pairs = np.zeros((bad.size, g.n))
        pairs[:, u] = 1.0
        pairs[rows, bad] = -1.0
        _solve_in_place(solver, pairs, zeta)
        estimates[bad] = pairs[:, u] - pairs[rows, bad]
    estimates.flags.writeable = False
    return estimates


def furthest_pair(g: WeightedGraph,
                  cfg: SketchConfig | None = None,
                  solver: LaplacianSolver | None = None) -> tuple[int, int, float]:
    """A vertex pair whose resistance is within a constant factor of the
    resistance diameter, plus its estimate.

    Fixes u = 0, sketches A(0, ·), and returns the smallest id whose
    estimate is within a relative ``TIE_TOLERANCE`` of the maximum, so
    exact ties do not fall to rounding. By the triangle inequality the true
    resistance of the returned pair is at least R_diam/(2·e^{2·beta}); in
    the sketch's exact regime, where the estimates are a row of the
    solver's resistance matrix, the factor improves to 1/2.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    estimates = approx_reff_from_source(g, 0, cfg, solver)
    v = int(np.argmax(estimates >= estimates.max() * (1.0 - TIE_TOLERANCE)))
    return 0, v, float(estimates[v])

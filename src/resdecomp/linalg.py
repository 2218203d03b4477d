"""Laplacian assembly, accuracy-controlled linear solves, electric potentials
and effective resistances.

The solver contract is relative accuracy in the energy norm:
``‖x̂ − L†b‖_L ≤ ζ·‖L†b‖_L``. A :class:`LaplacianSolver` prepares one graph
once, with one of three backends:

- "dense": a Cholesky factor of the grounded Laplacian, written straight
  from the edge arrays and factored in place;
- "sparse": a sparse LU factor (SuperLU) of the grounded Laplacian;
- "iterative": Jacobi-preconditioned conjugate gradient, run as plain
  conjugate gradient on the Schur complement that D^{-1/2} L D^{-1/2} (D
  the weighted degrees) leaves once a maximal independent set is
  eliminated exactly, with in-place updates and no allocation per
  iteration, stopped by a certificate of the contract built from one
  spanning tree. Its dot products are summed in fixed blocks, so its bits
  do not depend on the BLAS thread count.

The sparse Laplacian is assembled only for the backends that read it:
sparse LU and the fill probe. PCG builds its operator from the edge
arrays.

The two direct backends meet the contract up to rounding. PCG stops on
Thomson's principle: the error e = x̂ − L†b solves Le = r for the residual
r = b − Lx̂, so ‖e‖²_L = rᵀL†r, the energy of the electrical flow that
routes r, and any other flow that routes r has at least that energy. The
flow along a shortest-path spanning tree T (edge lengths 1/w) puts on each
tree edge the sum of r over the subtree below it, and its energy
Σ_{e∈T} f_e²/w_e is O(n) to evaluate. With ‖L†b‖²_L ≥ ‖b‖²/λmax and
λmax ≤ 2·max deg, a tree energy of at most ζ²‖b‖²/(2·max deg) certifies the
contract.

"auto" takes the dense factor up to ``DENSE_SOLVE_LIMIT`` vertices. Above it
a fill probe decides: the envelope of L under reverse Cuthill–McKee
ordering, which stays near n^{3/2} on planar meshes (whose factors stay
nearly linear) and grows far beyond it on expanders (which PCG solves in a
few dozen iterations and nothing factors cheaply).
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.linalg.blas import daxpy, ddot, dscal
from scipy.sparse._sparsetools import csr_matvec

from .errors import ConvergenceError, DisconnectedGraphError, InfiniteResistanceError
from .graph import WeightedGraph, _is_int, connected_components, induced_subgraph

# The one order up to which the solver forms an n×n array: the auto method
# takes dense Cholesky, and LaplacianSolver.reff_matrix forms the all-pairs
# resistance matrix that the sketch's exact regime and the block certificate
# read. Above it, the fill probe chooses between sparse LU and PCG, and a
# block is certified by 2·e^beta ≈ 3 times its sketch estimate.
DENSE_SOLVE_LIMIT = 2048
# The fill probe admits sparse LU when the RCM envelope of L is at most this
# factor times n^{3/2}. Measured envelope/n^{3/2}: 2-d grids 0.67 from 46 to
# 316 per side; hypercube(12) 10.8, random_regular(3000, 4) 11.4.
SPARSE_ENVELOPE_FACTOR = 2.0
# Batches are checked and solved directly this many rows at a time, so the
# solvers' copies of the right-hand sides stay out of the peak memory.
_ROW_CHUNK = 64
# _clamp_zeta clamps requested solve tolerances to [ZETA_FLOOR, ZETA_CAP]:
# below the floor the demanded accuracy is unattainable in double precision,
# and a cap keeps the value a valid relative tolerance.
ZETA_FLOOR = 1e-13
ZETA_CAP = 0.5
# PCG sums its dot products over blocks of at most this many entries:
# OpenBLAS splits longer ones across its threads.
_DOT_BLOCK = 10000
# The energy ratio the first row of every PCG call takes (see _pcg): a
# lower bound.
_PCG_FIRST_RATIO = 0.5
# Iterations one PCG solve may take before ConvergenceError; read per solve.
PCG_MAX_ITERATIONS = 20000
# The methods a caller may ask for; "auto" picks a backend per graph.
METHODS = ("auto", "dense", "iterative")


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")


def _clamp_zeta(zeta: float) -> float:
    return float(min(max(zeta, ZETA_FLOOR), ZETA_CAP))


def assemble_laplacian(g: WeightedGraph) -> sp.csr_matrix:
    """Weighted Laplacian L = D - W as a sparse CSR matrix."""
    A = g.adjacency_matrix()
    L = sp.diags(g.degrees, format="csr") - A
    L.sort_indices()
    return L.tocsr()


class LaplacianSolver:
    """The Laplacian of one connected graph, ready for any number of solves.

    ``method`` is one of ``METHODS``; any other value raises ``ValueError``
    before anything is computed. Every method is deterministic, and each
    solve states its own accuracy ζ. The constructor then takes
    connectivity from
    :func:`~resdecomp.graph.connected_components` (a lookup when the graph
    was labelled before, as a single-component work item of the recursion
    is), raising :class:`DisconnectedGraphError` on more than one
    component. It then resolves the method: "dense" and "iterative" are
    taken as given; "auto" is "dense" up to ``DENSE_SOLVE_LIMIT`` vertices,
    and above it "sparse" when the RCM envelope of L is at most
    ``SPARSE_ENVELOPE_FACTOR``·n^{3/2}, else "iterative". ``method`` holds
    the resolved backend. The constructor then factors the grounded
    Laplacian: dense Cholesky writes it from the edge arrays and factors it
    in place, sparse LU factors the sparse L. :attr:`laplacian`, the sparse
    L, is assembled on first use, so only the fill probe and sparse LU
    build it. PCG is conjugate gradient on the Schur complement S of
    D^{-1/2} L D^{-1/2} once the greedy maximal independent set (in vertex-id
    order) is eliminated; no fill arises inside that set, and on a
    bipartite graph it halves the system. PCG builds that operator on its
    first solve beside its shortest-path spanning tree from vertex 0 (edge
    lengths 1/w); the tree's flow energy certifies each stop: PCG stops
    once the tree energy of the residual is at most ζ²‖b‖²/(2·max deg),
    evaluated where an energy ratio predicts a pass.
    Every solve call starts from the lower bound 1/2 on that ratio, and
    each later row of the call from the ratio measured at the row before,
    so it usually checks once. A call's bits depend on nothing outside it,
    so the sketch's probe chunks, one call each, can run on threads in any
    order. Its dot products are summed in fixed blocks of 10⁴ entries, so
    PCG's bits do not depend on the BLAS thread count.
    :meth:`reff_matrix` inverts the grounded factor once, on first use, and
    keeps the result; above ``DENSE_SOLVE_LIMIT`` vertices it forms no
    matrix and returns ``None``. Build one solver per graph and hand it to
    every solve on that graph: the sketch (or, in its exact regime, a row of
    the resistance matrix), the patch solves, the cut's potential and the
    block certificate.
    """

    def __init__(self, g: WeightedGraph, method: str = "auto"):
        _check_method(method)
        ncomp = len(connected_components(g))
        if ncomp > 1:
            raise DisconnectedGraphError(
                f"Laplacian has {ncomp} connected components; solve per component")
        self.graph = g
        self.method = method
        self._reff = None
        if self.method == "auto" and g.n <= DENSE_SOLVE_LIMIT:
            self.method = "dense"
        if g.n <= 1:  # every zero-sum right-hand side is zero; nothing to factor
            return
        if self.method == "auto":
            fits = _rcm_envelope(self.laplacian) <= SPARSE_ENVELOPE_FACTOR * g.n ** 1.5
            self.method = "sparse" if fits else "iterative"
        # Grounding the last vertex makes the reduced system positive
        # definite; each direct solve then removes the constant shift.
        if self.method == "dense":
            self._factor = _grounded_cholesky(g, g.n - 1)
            return
        if self.method == "sparse":
            # SPD system: pivot on the diagonal, order for A + Aᵀ.
            self._factor = spla.splu(self.laplacian[:-1, :-1].tocsc(),
                                     permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                     options=dict(SymmetricMode=True))
            return
        # λmax ≤ 2·max deg (Gershgorin) lower-bounds ‖L†b‖²_L by ‖b‖²/λmax.
        self._lambda_max = 2.0 * float(g.degrees.max())

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """The sparse Laplacian, assembled on first use: only the fill probe
        and sparse LU read it, so a dense or an explicitly iterative solver
        never builds it."""
        return assemble_laplacian(self.graph)

    @cached_property
    def _tree(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """PCG's certificate tree, built on first use: a solver that is only
        factored, e.g. for a block certificate, never pays for it."""
        return _spanning_tree(self.graph)

    @cached_property
    def _reduced(self) -> tuple[np.ndarray, sp.csr_matrix, sp.csr_matrix, np.ndarray, np.ndarray]:
        """PCG's operator, built on first use from the edge arrays (see
        :func:`_pcg`): the vertex order V₁ then V₂, with V₂ the greedy
        independent set of :func:`_independent_set` and each part in id
        order; in that order, the V₁ rows of D^{-1/2} L D^{-1/2} − I, which
        are −[E | Cᵀ], and the V₂ rows of I − D^{-1/2} L D^{-1/2}, which are
        [C | 0] and stored as the n₂×n₁ matrix C; and √deg and 1/√deg in that
        order."""
        g = self.graph
        in_set = _independent_set(g)
        order = np.concatenate([np.flatnonzero(~in_set), np.flatnonzero(in_set)])
        n1 = g.n - int(in_set.sum())
        sqrt_deg = np.sqrt(g.degrees[order])
        inv_sqrt = 1.0 / sqrt_deg
        # D^{-1/2} W D^{-1/2} with rows and columns in the order V₁, V₂
        N = g.adjacency_matrix()[order]
        position = np.empty(g.n, dtype=N.indices.dtype)
        position[order] = np.arange(g.n)
        N.indices = position[N.indices]
        data = np.repeat(inv_sqrt, np.diff(N.indptr))
        data *= N.data
        data *= inv_sqrt[N.indices]
        N.data = data
        N.sort_indices()
        split = N.indptr[n1]
        N.data[:split] *= -1.0
        upper = sp.csr_matrix((N.data[:split], N.indices[:split], N.indptr[:n1 + 1]),
                              shape=(n1, g.n))
        lower = sp.csr_matrix((N.data[split:], N.indices[split:], N.indptr[n1:] - split),
                              shape=(g.n - n1, n1))
        return order, upper, lower, sqrt_deg, inv_sqrt

    def reff_matrix(self) -> np.ndarray | None:
        """All-pairs effective resistances of the solver's graph (read-only),
        computed on the first call and kept, or ``None`` above
        ``DENSE_SOLVE_LIMIT`` vertices: the solver owns that limit and reads
        it at each call. It inverts the dense backend's own grounded factor;
        any other backend's Laplacian is factored here."""
        if self.graph.n > DENSE_SOLVE_LIMIT:
            return None
        if self._reff is None:
            n = self.graph.n
            if n <= 1:
                self._reff = np.zeros((n, n))
            else:
                factor = (self._factor if self.method == "dense"
                          else _grounded_cholesky(self.graph, n - 1))
                self._reff = _grounded_reff_matrix(factor)
            self._reff.flags.writeable = False
        return self._reff


def _spanning_tree(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest-path tree of g from vertex 0 under edge lengths 1/w.

    Returns the tree's vertices in preorder; for each preorder position
    i ≥ 1, the last position of the subtree rooted there (a subtree is a
    contiguous preorder range); and the resistance 1/w of the edge from that
    vertex to its parent.
    """
    n = g.n
    lengths = sp.csr_matrix((1.0 / g.weights, g.indices, g.indptr), shape=(n, n))
    _, pred = csgraph.dijkstra(lengths, directed=False, indices=0, return_predecessors=True)
    tree = sp.csr_matrix((np.ones(n - 1), (pred[1:], np.arange(1, n))), shape=(n, n))
    order = csgraph.depth_first_order(tree, 0, directed=True, return_predecessors=False)
    size = [1] * n
    up = pred.tolist()
    for v in order[:0:-1].tolist():
        size[up[v]] += size[v]
    below = order[1:]
    last = np.arange(1, n) + np.asarray(size)[below] - 1
    res = np.asarray(lengths[pred[below], below]).ravel()
    return order, last, res


def _independent_set(g: WeightedGraph) -> np.ndarray:
    """A maximal independent set of g as a boolean mask: the greedy one in
    vertex-id order, which takes each vertex that no vertex taken before
    it neighbours."""
    taken, blocked = np.zeros(g.n, dtype=bool), np.zeros(g.n, dtype=bool)
    for v in range(g.n):
        if not blocked[v]:
            taken[v] = True
            blocked[g.indices[g.indptr[v]:g.indptr[v + 1]]] = True
    return taken


def _tree_energy(solver: LaplacianSolver, r: np.ndarray) -> float:
    """Energy Σ_{e∈T} f_e²/w_e of the flow that routes r − mean(r) along the
    solver's spanning tree T, where f_e is the sum of r − mean(r) over the
    subtree below e. By Thomson's principle it is at least rᵀL†r."""
    order, last, res = solver._tree
    c = r[order]
    c -= c.mean()
    np.cumsum(c, out=c)
    f = c[last]
    f -= c[:-1]
    f *= f
    return _dot(f, res)


def _rcm_envelope(L: sp.csr_matrix) -> int:
    """Envelope of L under reverse Cuthill–McKee ordering: the sum over rows
    of the distance from the diagonal to the row's first nonzero column. It
    bounds the fill of a profile factorization, so it is a cheap proxy for
    the fill of the sparse LU factor."""
    perm = csgraph.reverse_cuthill_mckee(L, symmetric_mode=True)
    P = L[perm][:, perm]
    P.sort_indices()
    first = P.indices[P.indptr[:-1]]  # the diagonal is nonzero, so first <= row
    return int((np.arange(L.shape[0]) - first).sum())


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """aᵀb summed over fixed blocks of ``_DOT_BLOCK`` entries in order.
    OpenBLAS splits a longer dot product across its threads, so its bits
    would depend on the thread count; up to the block size it does not."""
    n = a.shape[0]
    if n <= _DOT_BLOCK:
        return ddot(a, b)
    total = 0.0
    for i in range(0, n, _DOT_BLOCK):
        total += ddot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK])
    return total


def _pcg(solver: LaplacianSolver, B: np.ndarray, zeta: float) -> None:
    """Overwrite each nonzero row b of ``B`` with its certified solution.

    Jacobi PCG on L is conjugate gradient on L̃ = D^{-1/2} L D^{-1/2} =
    I − N, N the degree-scaled adjacency, for x̃ = D^{1/2} x and
    b̃ = D^{-1/2} b (step lengths and residual norms are the same). With a
    maximal independent set V₂ ordered last (:attr:`LaplacianSolver._reduced`),
    N = [[E, Cᵀ], [C, 0]], and L̃x̃ = b̃ reads (I − E)x₁ − Cᵀx₂ = b̃₁,
    x₂ = b̃₂ + C x₁. Eliminating x₂ exactly leaves S x₁ = c, with the Schur
    complement S = I − E − CᵀC and c = b̃₁ + Cᵀb̃₂; this runs conjugate
    gradient on that system from x₁ = 0, then sets x₂ = b̃₂ + C x₁. An
    iteration computes t = C d and S d = d − [E | Cᵀ](d, t): two CSR
    products through ``csr_matvec``, the kernel scipy's ``@`` calls,
    written into vectors allocated once per call.

    The full system sees exactly what the reduced one does. For any x₁, the
    residual of (x₁, b̃₂ + C x₁) is (c − S x₁, 0) = (r₁, 0): its V₂ rows
    vanish by construction, and its V₁ rows are b̃₁ − (I − E)x₁ +
    Cᵀ(b̃₂ + C x₁). For an error e = (e₁, C e₁), eᵀL̃e = e₁ᵀS e₁, so
    ‖x̂ − x‖_L = ‖x̂₁ − x₁‖_S, and in particular ‖x̂‖²_L = ‖x̂₁‖²_S + ‖b̃₂‖²
    for the iterate x̂. Conjugate gradient's x̂₁ is the S-orthogonal
    projection of x₁ onto a Krylov space, so ‖x̂₁‖_S ≤ ‖x₁‖_S and
    ‖x̂‖_L ≤ ‖x‖_L. S is singular only along D₁^{1/2}1, to which c, like
    b, is orthogonal.

    A row stops once the tree energy of its residual D^{1/2}(r₁, 0) is at
    most ζ²‖b‖²/λmax. That energy is evaluated at each iterate where r₁ᵀr₁
    times a ratio energy/r₁ᵀr₁ reaches the goal. The first row of every
    call takes ``_PCG_FIRST_RATIO`` = 1/2, a lower bound: the energy is at
    least r̃ᵀL̃†r̃ for r̃ = (r₁, 0), and L̃'s eigenvalues are at most 2, so it
    checks every iterate that could pass. Each later row takes the ratio
    measured at the previous row's stop, so it usually checks once. The
    ratio decides which iterates are checked, and so where a row stops: the
    rows' bits depend on the call's batch, and on nothing outside the call.
    The iterate at which the budget runs out is always checked, so a row
    raises :class:`ConvergenceError` only on an iterate the tree does not
    certify.
    """
    order, upper, lower, sqrt_deg, inv_sqrt = solver._reduced
    lam_max, maxiter = solver._lambda_max, PCG_MAX_ITERATIONS
    n1, n = upper.shape
    # the matvec arguments of −[E | Cᵀ] and of C; each product adds into its output
    up = (n1, n, upper.indptr, upper.indices, upper.data)
    low = (n - n1, n1, lower.indptr, lower.indices, lower.data)
    v1, v2 = order[:n1], order[n1:]
    sqrt1, inv2 = sqrt_deg[:n1], inv_sqrt[n1:]
    # xt = (x₁, x₂) and dt = (d, C d), in the order V₁, V₂
    xt, dt = np.empty(n), np.empty(n)
    x, x2, d = xt[:n1], xt[n1:], dt[:n1]
    c, r, q = np.empty(n1), np.empty(n1), np.empty(n1)
    res = np.zeros(n)  # the residual D^{1/2}(r₁, 0), in vertex order

    def schur_product(zt: np.ndarray, out: np.ndarray) -> None:
        """out = S·zt[:n1], with C·zt[:n1] left in zt[n1:]."""
        zt[n1:] = 0.0
        csr_matvec(*low, zt[:n1], zt[n1:])
        out[:] = zt[:n1]
        csr_matvec(*up, zt, out)

    ratio = _PCG_FIRST_RATIO
    for b in B:
        if not b.any():
            continue
        bnorm = math.sqrt(_dot(b, b))
        goal = (zeta * bnorm) ** 2 / lam_max
        # c = b̃₁ + Cᵀb̃₂, as −(−b̃₁ + (−[E | Cᵀ])(0, b̃₂))
        np.multiply(b[order], inv_sqrt, out=xt)
        np.negative(x, out=c)
        x.fill(0.0)
        csr_matvec(*up, xt, c)
        np.negative(c, out=c)
        r[:] = c
        d[:] = c
        delta = _dot(r, r)
        it = 0
        while True:
            if delta * ratio <= goal or it >= maxiter:
                np.multiply(r, sqrt1, out=q)
                res[v1] = q
                energy = _tree_energy(solver, res)
                if energy <= goal:
                    break
                if it >= maxiter:
                    resnorm = math.sqrt(_dot(q, q))
                    attained = math.sqrt(energy * lam_max) / bnorm
                    raise ConvergenceError(
                        f"PCG did not certify zeta {zeta:.3e} within {maxiter} iterations "
                        f"(residual {resnorm:.3e}, attained zeta {attained:.3e})",
                        residual=resnorm, attained_zeta=attained)
            schur_product(dt, q)
            alpha = delta / _dot(d, q)
            daxpy(d, x, a=alpha)
            if (it + 1) % 50 == 0:  # periodic refresh against drift: r = c − S x
                schur_product(xt, r)
                np.subtract(c, r, out=r)
            else:
                daxpy(q, r, a=-alpha)
            delta_new = _dot(r, r)
            dscal(delta_new / delta, d)
            daxpy(r, d)
            delta = delta_new
            it += 1
        # an exactly vanishing residual is certified but measures no ratio
        if delta > 0.0:
            ratio = energy / delta
        np.multiply(b[v2], inv2, out=x2)
        csr_matvec(*low, x, x2)  # x₂ = b̃₂ + C x₁
        xt *= inv_sqrt
        b[order] = xt
        b -= b.mean()


def solve_laplacian_many(solver: LaplacianSolver, B: np.ndarray, zeta: float) -> np.ndarray:
    """Solve L X[i] = B[i] for a batch of zero-sum right-hand-side rows.

    Each row satisfies the energy-norm accuracy contract for ``zeta`` and is
    orthogonal to the all-ones vector. ``B`` is left unchanged.
    """
    # C order whatever the order of B, so each direct solve's row mean is
    # summed along a contiguous row
    X = np.array(B, dtype=np.float64, order="C")
    _solve_in_place(solver, X, zeta)
    return X


def _solve_in_place(solver: LaplacianSolver, B: np.ndarray, zeta: float) -> None:
    """:func:`solve_laplacian_many` on a writable float64 batch whose rows it
    overwrites with their solutions, so the batch is the only k×n array the
    solve holds: PCG writes each row after its own solve, with bits that
    depend on this batch alone (see :func:`_pcg`); the direct backends
    take ``_ROW_CHUNK`` rows at a time, write their grounded solutions into
    the chunk's first n − 1 columns, zero its last column and subtract its
    row means."""
    if not (0 < zeta < 1):
        raise ValueError(f"zeta must lie in (0, 1), got {zeta}")
    n = solver.graph.n
    if B.ndim != 2 or B.shape[1] != n:
        raise ValueError(f"batch must have shape (k, {n}), got {B.shape}")
    for i in range(0, B.shape[0], _ROW_CHUNK):
        rows = B[i:i + _ROW_CHUNK]
        # a NaN row would pass the zero-sum test below: abs(nan) > tol is false
        if not np.isfinite(rows).all():
            raise ValueError("every right-hand side row must be finite")
        if (np.abs(rows.sum(axis=1)) > 1e-12 * np.maximum(1.0, np.abs(rows).sum(axis=1))).any():
            raise ValueError("every right-hand side row must sum to zero")
    if not B.any():  # every row is its own solution; includes n = 1
        return
    if solver.method == "iterative":
        _pcg(solver, B, zeta)
        return
    # direct backends: solve the grounded system, pad the grounded vertex
    # with zero, then remove the mean
    for i in range(0, B.shape[0], _ROW_CHUNK):
        rows = B[i:i + _ROW_CHUNK]
        rhs = rows[:, :-1].T
        rows[:, :-1] = (sla.cho_solve(solver._factor, rhs, check_finite=False)
                        if solver.method == "dense" else solver._factor.solve(rhs)).T
        rows[:, -1] = 0.0
        rows -= rows.mean(axis=1, keepdims=True)


def required_solver_accuracy(g: WeightedGraph, eta: float) -> float:
    """Solve tolerance that guarantees additive per-entry potential accuracy
    ``eta``: zeta = eta * min_e w / (n - 1), clamped to the representable
    range.

    An error e with ‖e‖_L ≤ zeta·‖L†b‖_L moves each potential difference by
    at most ‖e‖_L·sqrt(Reff(v, t)) ≤ zeta·R_diam, and every resistance is at
    most that of a spanning-tree path, (n - 1) / min_e w.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return _clamp_zeta(eta * g.min_weight() / (g.n - 1))


def implied_potential_accuracy(g: WeightedGraph, zeta: float) -> float:
    """Additive per-entry potential accuracy implied by solve tolerance
    ``zeta`` (the inverse of :func:`required_solver_accuracy`)."""
    if g.m == 0:
        raise ValueError("graph has no edges")
    if not 0 < zeta < 1:
        raise ValueError(f"zeta must lie in (0, 1), got {zeta}")
    return float(zeta * (g.n - 1) / g.min_weight())


def st_potential(solver: LaplacianSolver, s: int, t: int, zeta: float) -> np.ndarray:
    """Electric potentials of the solver's graph for a unit flow injected at
    ``s`` and removed at ``t``, solved to ``zeta`` and shifted so the sink
    potential is exactly zero, as a read-only float64 array. Each entry is
    within ``implied_potential_accuracy(graph, zeta)`` of the exact one."""
    g = solver.graph
    if not (_is_int(s) and _is_int(t) and 0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"vertices ({s!r}, {t!r}) must be integers in range [0, {g.n})")
    if s == t:
        raise ValueError("source and sink must differ")
    b = np.zeros((1, g.n))
    b[0, [s, t]] = 1.0, -1.0
    x = solve_laplacian_many(solver, b, zeta)[0]
    values = x - x[t]
    values.flags.writeable = False
    return values


def _grounded_cholesky(g: WeightedGraph, ground: int) -> tuple:
    """Dense Cholesky factor of the Laplacian of the connected graph ``g``
    with vertex ``ground`` grounded: its row and column removed, which
    leaves a positive definite matrix.

    The grounded matrix is written straight from the edge arrays into one
    Fortran-ordered array, which LAPACK factors in place. Each entry is a
    degree or a negated edge weight (the graph is simple), so the matrix is
    bit-identical to :func:`assemble_laplacian`'s L, made dense, with the
    ground's row and column removed."""
    eu, ev, ew = g.edges()
    keep = (eu != ground) & (ev != ground)
    u, v = eu[keep], ev[keep]
    # vertices above the ground move up one place
    u = u - (u > ground)
    v = v - (v > ground)
    A = np.zeros((g.n - 1, g.n - 1), order="F")
    A[u, v] = A[v, u] = -ew[keep]
    np.fill_diagonal(A, np.delete(g.degrees, ground))
    return sla.cho_factor(A, overwrite_a=True, check_finite=False)


def _pair_component(g: WeightedGraph, s: int, t: int) -> tuple[WeightedGraph, int, int]:
    """The component of g holding s and t as an induced subgraph, with s and t
    renumbered into it; InfiniteResistanceError if they lie apart."""
    if not (_is_int(s) and _is_int(t) and 0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"vertices ({s!r}, {t!r}) must be integers in range [0, {g.n})")
    comp = next(c for c in connected_components(g) if s in c)
    if t not in comp:
        raise InfiniteResistanceError(
            f"vertices {s} and {t} lie in different components; resistance is infinite")
    a, b = np.searchsorted(comp, [s, t]).tolist()
    sub = g if comp.size == g.n else induced_subgraph(g, comp)[0]
    return sub, a, b


def _grounded_reff_matrix(factor: tuple) -> np.ndarray:
    """All-pairs effective resistances from the Cholesky factor of a
    Laplacian grounded at its last vertex: with G the inverse of the
    grounded matrix, padded with zeros, Reff(u, v) = G_uu + G_vv − 2·G_uv."""
    n = factor[0].shape[0] + 1
    G = np.zeros((n, n))
    G[:-1, :-1] = sla.cho_solve(factor, np.eye(n - 1), check_finite=False)
    d = np.diag(G)
    R = d[:, None] + d[None, :] - 2 * G
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 0.0)
    return np.maximum(R, 0.0)

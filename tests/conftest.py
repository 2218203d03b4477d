import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import resdecomp as rd
from resdecomp import linalg, sketch


def exact_reff(g, s, t):
    """Effective resistance between s and t by a dense Cholesky factor of the
    Laplacian of their component, grounded at one of them: the tests'
    reference. Symmetric in (s, t), bit for bit."""
    sub, a, b = linalg._pair_component(g, s, t)
    if a == b:
        return 0.0
    # ground the larger index, so the smaller keeps its place whichever
    # orientation was asked
    a, b = sorted((a, b))
    factor = linalg._grounded_cholesky(sub, b)
    rhs = np.zeros(sub.n - 1)
    rhs[a] = 1.0
    return float(sla.cho_solve(factor, rhs, check_finite=False)[a])


def exact_reff_matrix(g):
    """All-pairs effective resistances via the inverse of the Laplacian
    grounded at the last vertex: the tests' reference."""
    if g.n <= 1:
        return np.zeros((g.n, g.n))
    if len(rd.connected_components(g)) > 1:
        raise rd.DisconnectedGraphError("resistance matrix requires a connected graph")
    return linalg._grounded_reff_matrix(linalg._grounded_cholesky(g, g.n - 1))


def random_connected_graph(rng, max_n=12, weight_range=(0.1, 10.0)):
    """Random spanning tree plus extra distinct edges, uniform weights."""
    n = int(rng.integers(2, max_n + 1))
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(0, v)), v))
    non_tree = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    extra = int(rng.integers(0, len(non_tree) + 1))
    for idx in rng.permutation(len(non_tree))[:extra]:
        edges.add(non_tree[idx])
    ordered = sorted(edges)
    lo, hi = weight_range
    weights = rng.uniform(lo, hi, size=len(ordered))
    return rd.build_graph(n, [(u, v, float(w)) for (u, v), w in zip(ordered, weights)])


def two_triangles_bridge():
    """Two unit triangles joined by one unit bridge edge; w(E) = 7."""
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0),
             (2, 3, 1.0)]
    return rd.build_graph(6, edges)


def path_graph(n, weight=1.0):
    return rd.build_graph(n, [(i, i + 1, weight) for i in range(n - 1)])


def skewed(g, spread, seed=0):
    """g with edge weights log-uniform on [1/spread, spread], drawn in edge
    order."""
    w = np.exp(np.random.default_rng(seed).uniform(-np.log(spread), np.log(spread), g.m))
    return rd.build_graph(g.n, zip(g.edge_u.tolist(), g.edge_v.tolist(), w.tolist()))


def log_uniform_mesh(side, lo, hi, seed):
    """grid2d(side) with edge weights log-uniform on [lo, hi]."""
    base = rd.grid2d(side)
    w = np.exp(np.random.default_rng(seed).uniform(np.log(lo), np.log(hi), base.m))
    return rd.build_graph(base.n, zip(base.edge_u.tolist(), base.edge_v.tolist(), w.tolist()))


def greedy_independent_set(g):
    """The vertices of g taken greedily in id order, each unless a vertex
    taken before it is its neighbour: a maximal independent set."""
    taken = set()
    for v in range(g.n):
        if not taken.intersection(g.neighbors(v)[0].tolist()):
            taken.add(v)
    return sorted(taken)


def reduced_cg(g, b):
    """Textbook conjugate gradient on the Schur complement of the greedy
    independent set V₂ in D^{-1/2} L D^{-1/2}, from x₁ = 0: yields the
    iterate and the residual (x, b − L x) of the full system, with
    x₂ = b̃₂ − Ã₂₁x₁ eliminated exactly, before the first step and after
    each step."""
    L = rd.assemble_laplacian(g).toarray()
    inv_sqrt = 1.0 / np.sqrt(np.diag(L))
    A = inv_sqrt[:, None] * L * inv_sqrt[None, :]
    v2 = greedy_independent_set(g)
    v1 = sorted(set(range(g.n)) - set(v2))
    A11, A12, A21 = A[np.ix_(v1, v1)], A[np.ix_(v1, v2)], A[np.ix_(v2, v1)]
    S = A11 - A12 @ A21  # A22 = I on an independent set
    bt = inv_sqrt * b
    x1 = np.zeros(len(v1))
    r = bt[v1] - A12 @ bt[v2]
    d = r
    while True:
        xt = np.empty(g.n)
        xt[v1], xt[v2] = x1, bt[v2] - A21 @ x1
        x = inv_sqrt * xt
        yield x, b - L @ x
        q = S @ d
        alpha = (r @ r) / (d @ q)
        x1 = x1 + alpha * d
        r_new = r - alpha * q
        d = r_new + (r_new @ r_new) / (r @ r) * d
        r = r_new


def fix_probe_count(monkeypatch, k):
    """Make every sketch ask for k probes (it draws at most m) whatever its
    graph and beta: the probe count is no setting, and on small graphs the
    budget C·ln n/beta² at beta <= 1 exceeds m, so only this reaches their
    probe path."""
    monkeypatch.setattr(sketch, "_num_probes", lambda cfg, n: k)


def target_scaled_config(g, delta, scale):
    """The DecompositionConfig for_graph derives, with the resistance target
    times ``scale``: budget w(E)/delta and target scale·delta²·n/budget. No
    floor is checked, so delta may lie below the one for_graph enforces."""
    budget = g.total_weight / delta
    return rd.DecompositionConfig(delta=delta, n_original=g.n, cut_budget=budget,
                                  resistance_target=scale * delta * delta * g.n / budget)


def one_shot_probe_system(g, k, seed):
    """The probe right-hand sides and Gram with the k probes drawn as one
    k×m float64 matrix: what the streamed draw must reproduce bit for bit."""
    m = g.m
    rng = np.random.default_rng(seed)
    probes = (rng.integers(0, 2, size=(k, m)) * 2 - 1).astype(np.float64)
    eu, ev, ew = g.edges()
    sqrt_w = np.sqrt(ew)
    rows = np.concatenate([np.arange(m), np.arange(m)])
    cols = np.concatenate([eu, ev])
    vals = np.concatenate([sqrt_w, -sqrt_w])
    incidence = sp.csr_matrix((vals, (rows, cols)), shape=(m, g.n))
    return incidence.T.dot(probes.T).T, probes @ probes.T


@pytest.fixture(scope="session")
def corpus():
    """50 seeded random connected graphs, n <= 12, weights in [0.1, 10]."""
    rng = np.random.default_rng(20240817)
    return [random_connected_graph(rng) for _ in range(50)]


@pytest.fixture(scope="session")
def corpus100():
    rng = np.random.default_rng(424242)
    return [random_connected_graph(rng) for _ in range(100)]

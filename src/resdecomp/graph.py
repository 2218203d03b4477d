"""Weighted undirected graphs and cut/volume/conductance arithmetic.

Vertices are dense 0-based integers. Graphs are immutable after
construction; every operation here is a pure function of its inputs.
:func:`connected_components` is the package's one connectivity labelling:
it labels a graph on the first ask and keeps the answer on the graph, so
the recursion, the solver and the pair lookup of ``reff`` share it.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph


class WeightedGraph:
    """Immutable undirected graph with positive edge weights.

    Stores a canonical edge list (u < v, sorted lexicographically) plus a
    CSR-style adjacency for O(deg) neighbor scans. Parallel input edges are
    merged by weight sum and self-loops dropped at build time, so instances
    always describe simple graphs. Use :func:`build_graph` to construct one.
    Its connected components are labelled on the first call to
    :func:`connected_components` and kept.
    """

    __slots__ = ("n", "m", "edge_u", "edge_v", "edge_w",
                 "indptr", "indices", "weights", "degrees", "total_weight", "_components")

    def __init__(self, n: int, edge_u: np.ndarray, edge_v: np.ndarray, edge_w: np.ndarray):
        self.n = int(n)
        self.m = int(edge_u.shape[0])
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_w = edge_w

        # symmetric CSR adjacency, neighbor ids ascending per vertex
        src = np.concatenate([edge_u, edge_v])
        dst = np.concatenate([edge_v, edge_u])
        wgt = np.concatenate([edge_w, edge_w])
        order = np.lexsort((dst, src))
        src, dst, wgt = src[order], dst[order], wgt[order]
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(self.indptr, src + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self.indices = dst
        self.weights = wgt

        degrees = np.zeros(self.n)
        np.add.at(degrees, src, wgt)
        self.degrees = degrees
        self.total_weight = float(edge_w.sum())
        self._components = None

        for arr in (self.edge_u, self.edge_v, self.edge_w,
                    self.indptr, self.indices, self.weights, self.degrees):
            arr.flags.writeable = False

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor ids and edge weights of ``v`` (ids ascending)."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical edge arrays ``(u, v, w)`` with u < v."""
        return self.edge_u, self.edge_v, self.edge_w

    def adjacency_matrix(self) -> sp.csr_matrix:
        """Weighted adjacency as a scipy CSR matrix."""
        return sp.csr_matrix((self.weights, self.indices, self.indptr), shape=(self.n, self.n))

    def min_weight(self) -> float:
        if self.m == 0:
            raise ValueError("graph has no edges")
        return float(self.edge_w.min())

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, total_weight={self.total_weight:g})"


@dataclass(frozen=True)
class CutStats:
    """Boundary weight, volume and conductance of a vertex set.

    ``conductance`` is None when the set has zero volume (the quantity is
    undefined there, which is not an error).
    """
    subset: np.ndarray
    boundary_weight: float
    volume: float
    conductance: float | None


def _is_int(x) -> bool:
    """Whether ``x`` is an integer by the dtype-kind test :func:`_subset_mask`
    applies to id arrays: a Python or numpy int is, a bool or float is not."""
    return np.dtype(type(x)).kind in "iu"


def build_graph(n: int, edges) -> WeightedGraph:
    """Build a graph from an iterable of ``(u, v, w)`` triples.

    Parallel entries for the same unordered pair are merged by summing
    weights; self-loops are dropped. ``n`` and the vertex ids must be
    integers (bools and floats are not) and the weights positive and
    finite; the index of the first offending edge is reported otherwise.
    """
    if not (_is_int(n) and n >= 0):
        raise ValueError(f"vertex count must be a non-negative integer, got {n!r}")
    edges = list(edges)
    # _is_int's test once per distinct id type; the scan only names the first bad edge
    id_types = {*map(type, map(itemgetter(0), edges)), *map(type, map(itemgetter(1), edges))}
    if not all(np.dtype(t).kind in "iu" for t in id_types):
        i = next(i for i, e in enumerate(edges) if not (_is_int(e[0]) and _is_int(e[1])))
        u, v = edges[i][:2]
        raise ValueError(f"edge {i}: vertex ids must be integers, got ({u!r}, {v!r})")
    eu = np.array([e[0] for e in edges], dtype=np.int64)
    ev = np.array([e[1] for e in edges], dtype=np.int64)
    ew = np.array([e[2] for e in edges], dtype=np.float64)

    bad = ~(np.isfinite(ew) & (ew > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"edge {i} ({eu[i]}, {ev[i]}): weight must be positive and finite, got {ew[i]}")
    out = (eu < 0) | (eu >= n) | (ev < 0) | (ev >= n)
    if out.any():
        i = int(np.argmax(out))
        raise ValueError(f"edge {i}: vertex id out of range [0, {n}): ({eu[i]}, {ev[i]})")
    return _merge_edges(int(n), eu, ev, ew)


def _merge_edges(n: int, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray) -> WeightedGraph:
    """The graph of the validated edge columns ``(eu, ev, ew)``: ids in
    [0, n) as int64, weights positive and finite as float64. Self-loops
    are dropped and parallel entries merged by weight sum, in input order.
    :func:`build_graph` and the edge-list reader both end here."""
    if eu.size and n ** 2 > np.iinfo(np.int64).max:
        raise ValueError(f"vertex count {n} is too large: n^2 must fit in int64")
    keep = eu != ev  # drop self-loops
    eu, ev, ew = eu[keep], ev[keep], ew[keep]
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)

    # one int64 key per pair, ascending in (lo, hi) order. bincount sums each
    # pair's weights in input order; with no pairs left it returns int64.
    keys, inverse = np.unique(lo * n + hi, return_inverse=True)
    w = np.bincount(inverse, weights=ew).astype(np.float64, copy=False)
    return WeightedGraph(n, keys // n, keys % n, w)


def _subset_mask(g: WeightedGraph, s) -> np.ndarray:
    """Membership mask of the vertex ids ``s``. Ids that are not integers
    (a boolean mask, bools among ints, or floats) are a ValueError rather
    than being read as 0/1 or truncated; an empty ``s`` of any dtype is the
    empty set."""
    if not isinstance(s, np.ndarray):
        s = list(s)
        # numpy promotes [True, 2] to int64 before the dtype test below, so
        # the ids are tested once per distinct type, as build_graph does
        if not all(map(_is_int, {type(x): x for x in s}.values())):
            bad = next(x for x in s if not _is_int(x))
            raise ValueError(f"vertex ids must be integers, got {bad!r}")
    ids = np.asarray(s)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got dtype {ids.dtype}")
    ids = np.unique(ids.astype(np.int64, copy=False))
    if ids.size and (ids[0] < 0 or ids[-1] >= g.n):
        raise ValueError(f"vertex id out of range [0, {g.n})")
    mask = np.zeros(g.n, dtype=bool)
    mask[ids] = True
    return mask


def cut_stats(g: WeightedGraph, s) -> CutStats:
    """Boundary weight, volume and conductance of the vertex set ``s``."""
    mask = _subset_mask(g, s)
    eu, ev, ew = g.edges()
    crossing = mask[eu] != mask[ev]
    boundary = float(ew[crossing].sum())
    volume = float(g.degrees[mask].sum())
    conductance = boundary / volume if volume > 0 else None
    return CutStats(subset=np.flatnonzero(mask), boundary_weight=boundary,
                    volume=volume, conductance=conductance)


def induced_subgraph(g: WeightedGraph, s) -> tuple[WeightedGraph, np.ndarray]:
    """Subgraph induced by ``s`` plus the id mapping.

    Returns ``(h, vertices)`` where ``vertices[i]`` is the original id of
    the subgraph's vertex ``i`` (ascending); edges keep their weights.
    """
    mask = _subset_mask(g, s)
    vertices = np.flatnonzero(mask)
    renumber = np.full(g.n, -1, dtype=np.int64)
    renumber[vertices] = np.arange(vertices.size)
    eu, ev, ew = g.edges()
    keep = mask[eu] & mask[ev]
    h = WeightedGraph(vertices.size, renumber[eu[keep]], renumber[ev[keep]], ew[keep].copy())
    return h, vertices


def connected_components(g: WeightedGraph) -> tuple[np.ndarray, ...]:
    """Vertex sets of the connected components (read-only, each ascending),
    ordered by smallest member id. The graph is labelled on the first call;
    later calls return the same kept tuple."""
    if g._components is None:
        g._components = _label_components(g)
    return g._components


def _label_components(g: WeightedGraph) -> tuple[np.ndarray, ...]:
    if g.n == 0:
        return ()
    # the adjacency is symmetric, so its strong components are its
    # components; the strong search, unlike the undirected one, builds no
    # transpose
    ncomp, labels = csgraph.connected_components(g.adjacency_matrix(), directed=True,
                                                 connection="strong")
    if ncomp == 1:
        whole = np.arange(g.n)
        whole.flags.writeable = False
        return (whole,)
    # a stable sort groups vertices by label, each group ascending from its least id
    order = np.argsort(labels, kind="stable")
    order.flags.writeable = False  # the components are views of it
    ends = np.cumsum(np.bincount(labels, minlength=ncomp)).tolist()
    starts = [0] + ends[:-1]
    comps = [order[a:b] for a, b in zip(starts, ends)]
    return tuple(comps[i] for i in np.argsort(order[starts]).tolist())


def scale_weights(g: WeightedGraph, alpha: float) -> WeightedGraph:
    """Graph with every edge weight multiplied by ``alpha`` (> 0)."""
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError(f"scale factor must be positive and finite, got {alpha}")
    return WeightedGraph(g.n, g.edge_u.copy(), g.edge_v.copy(), g.edge_w * alpha)

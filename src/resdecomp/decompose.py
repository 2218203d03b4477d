"""Recursive partitioning into blocks of bounded effective-resistance
diameter, with per-edge charge accounting and partition verification.

The recursion per instance graph: (1) repeatedly strip edges at vertices of
degree at most a global threshold, emitting stripped vertices as singleton
blocks; (2) per connected component, sketch a far pair; (3) accept the
component as a block if the pair's estimated resistance is within the
target; (4) otherwise cut it at the best level set and recurse on both
sides. Cut weight is tracked in two classes: degree-pruned edges ("type i")
and level-cut boundaries ("type ii"); type-ii weight is amortized onto
surviving internal edges as per-edge charges.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError
from .graph import WeightedGraph, _is_int, connected_components, induced_subgraph
from .linalg import LaplacianSolver, _check_method
from .sketch import TIE_TOLERANCE, SketchConfig, furthest_pair
from .sweep import DEFAULT_EPSILON, _far_pair_cut

# Verification constants, calibrated on the hypercube/grid benchmark family
# and frozen: observed loss fractions stay well under 1/delta and block
# resistance diameters far below the budget, so the published starting
# points hold with ample margin.
C_LOSS = 8.0
C_RES = 32.0


def _as_float(x: float) -> float:
    """``x`` as a float. An int beyond the float range saturates to ±inf,
    as a product of huge floats does; as an exact int, δ·δ·δ would raise
    ``OverflowError`` when it meets a float."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@dataclass(frozen=True)
class DecompositionConfig:
    """Frozen parameters of one decomposition run.

    ``cut_budget`` is the weight the run may cut (w(E)/delta at
    construction); ``resistance_target`` the per-block resistance level the
    recursion accepts; both stay fixed across all recursion levels, as does
    ``n_original``. Use :meth:`for_graph` to derive and validate them; direct
    construction performs no checks (useful for experiments off the
    guaranteed regime). Cuts use the sweep's ``DEFAULT_EPSILON``.
    """
    delta: float
    n_original: int
    cut_budget: float
    resistance_target: float

    @property
    def prune_threshold(self) -> float:
        return self.cut_budget / (2.0 * self.n_original)

    @classmethod
    def for_graph(cls, g: WeightedGraph, delta: float) -> "DecompositionConfig":
        """The paper's parameters for ``g``: the cut budget w(E)/delta and
        the resistance target delta³·n/w(E). ``delta`` must meet the
        charge-amortization floor delta² >= 4/epsilon at the sweep's
        ``DEFAULT_EPSILON``, that is delta >= 4. A block accepted at the
        target certifies at most 2·e^beta·target <= 2e·target (beta <= 1),
        inside the verifier's bound of ``C_RES`` times the target."""
        if g.n == 0:
            raise ValueError("graph must be non-empty")
        delta = _as_float(delta)
        least = math.sqrt(4.0 / DEFAULT_EPSILON)
        if not delta >= least:  # NaN fails too
            raise ValueError(
                f"delta must be at least {least:g}, the charge-amortization floor "
                f"delta^2 >= 4/epsilon at epsilon = {DEFAULT_EPSILON:g}; got {delta:g}")
        budget = g.total_weight / delta
        # delta·delta saturates to inf where ** would overflow
        target = delta * delta * g.n / budget if budget > 0 else math.inf
        return cls(delta=delta, n_original=g.n, cut_budget=budget, resistance_target=target)


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of the root graph's vertices.

    Blocks are sorted ascending internally and ordered by smallest member.
    """
    blocks: list[np.ndarray]
    cut_weight: float


@dataclass(frozen=True)
class BlockResistance:
    """Certified resistance diameter of one block: the exact oracle value,
    or (when ``certified_exact`` is false) an upper bound of 2·e^beta times a
    sketch estimate (three times at the default beta). That bound reads the
    lower side of the sketch's e^{±beta} bracket, which already holds the
    probe solves' share of the error (see :mod:`resdecomp.sketch`), so the
    solves need no factor of their own."""
    value: float
    certified_exact: bool


@dataclass(frozen=True)
class DecompositionReport:
    loss_fraction: float
    per_block_rdiam: list[BlockResistance]
    psi: np.ndarray
    type_i_weight: float
    type_ii_weight: float
    cut_weight: float
    uncharged_cut_weight: float
    charge_volumes: dict[int, list[float]]
    num_sparse_cuts: int
    num_pruned_vertices: int
    config: DecompositionConfig


@dataclass(frozen=True)
class VerificationRecord:
    """Independent re-check of a partition against the two output bounds."""
    cut_weight: float
    loss_fraction: float
    loss_bound: float
    loss_ok: bool
    block_rdiams: list[BlockResistance]
    rdiam_bound: float
    rdiam_ok: bool

    @property
    def passed(self) -> bool:
        return self.loss_ok and self.rdiam_ok


def prune_low_degree(h: WeightedGraph, threshold: float) -> tuple[WeightedGraph, float, np.ndarray]:
    """Repeatedly delete all edges at vertices of degree <= threshold.

    Returns the pruned graph (same vertex set; ``h`` itself when no vertex
    is pruned), the removed edge weight, and the vertices the process left
    with no edges. Idempotent on its own output.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    deg = h.degrees.copy()
    killed = np.zeros(h.n, dtype=bool)
    queued = np.zeros(h.n, dtype=bool)
    stack = list(np.flatnonzero((deg > 0) & (deg <= threshold)))
    if not stack:
        return h, 0.0, np.flatnonzero(killed)
    queued[stack] = True
    while stack:
        v = stack.pop()
        killed[v] = True
        nbrs, wts = h.neighbors(v)
        for u, w in zip(nbrs, wts):
            if killed[u]:
                continue  # edge already deleted from u's side
            deg[u] -= w
            if not queued[u] and deg[u] <= threshold:
                queued[u] = True
                stack.append(u)
        deg[v] = 0.0

    eu, ev, ew = h.edges()
    keep = ~killed[eu] & ~killed[ev]
    removed_weight = float(ew[~keep].sum())
    pruned = WeightedGraph(h.n, eu[keep].copy(), ev[keep].copy(), ew[keep].copy())
    isolated = np.flatnonzero((h.degrees > 0) & (pruned.degrees == 0))
    return pruned, removed_weight, isolated


class _Accounting:
    """Mutable per-run cut-weight and charge bookkeeping over root edges."""

    def __init__(self, root: WeightedGraph):
        # canonical root edges are sorted by (u, v), so these keys ascend
        self.n = root.n
        self.edge_keys = root.edge_u * root.n + root.edge_v
        self.psi = np.zeros(root.m)
        self.charge_volumes: dict[int, list[float]] = {}
        self.type_i = 0.0
        self.type_ii = 0.0
        self.uncharged = 0.0
        self.num_cuts = 0
        self.num_pruned = 0

    def charge_cut(self, side: WeightedGraph, side_ids: np.ndarray,
                   boundary_weight: float, side_volume: float) -> None:
        self.num_cuts += 1
        self.type_ii += boundary_weight
        if side.total_weight <= 0:
            self.uncharged += boundary_weight
            return
        charge = boundary_weight / side.total_weight
        # side_ids ascend (see partition_with_config) and side's edges have
        # u < v, so its root edges have u < v too
        idx = np.searchsorted(self.edge_keys, side_ids[side.edge_u] * self.n
                              + side_ids[side.edge_v])
        self.psi[idx] += charge
        for i in idx.tolist():
            self.charge_volumes.setdefault(i, []).append(side_volume)


def _certify_block(solver: LaplacianSolver, cfg: SketchConfig,
                   estimate: float | None = None) -> BlockResistance:
    """Certified resistance diameter of a connected block of two or more
    vertices, given the solver of its induced subgraph: the exact diameter,
    the largest entry of ``solver.reff_matrix()`` (the very matrix whose row
    the exact-regime sketch returned, so the block is inverted once), when
    the solver forms that matrix, else 2·e^beta times the far-pair estimate,
    sketched here unless the caller has it. The solver owns the size limit
    and reads it at each call, so the sketch, the partition and the
    verifier always agree on it."""
    if (R := solver.reff_matrix()) is not None:
        return BlockResistance(float(R.max()), True)
    if estimate is None:
        _, _, estimate = furthest_pair(solver.graph, cfg, solver)
    return BlockResistance(2.0 * math.exp(cfg.beta) * estimate, False)


def partition_with_config(g: WeightedGraph, config: DecompositionConfig,
                          cfg: SketchConfig | None = None,
                          method: str = "auto",
                          ) -> tuple[Partition, DecompositionReport]:
    """Run the decomposition with explicit (possibly unvalidated) parameters."""
    _check_method(method)  # also where no solver is built
    cfg = cfg or SketchConfig()
    if g.n == 0:
        raise ValueError("graph must be non-empty")

    acct = _Accounting(g)
    # (root ids, certificate) per block. Pruning strips only edges at the
    # vertices it isolates, so an accepted component's subgraph equals the
    # root's induced subgraph on its ids and is certified where it is emitted.
    blocks: list[tuple[np.ndarray, BlockResistance]] = []
    # Components, cut sides and the rests keep their vertices ascending, so
    # root ids ascend within every work item.
    work: list[tuple[WeightedGraph, np.ndarray, int]] = [(g, np.arange(g.n), 0)]
    while work:
        h, ids, depth = work.pop()
        if depth > config.n_original:
            raise RuntimeError(
                "recursion exceeded the vertex count; a cut failed to shrink the instance")
        pruned, removed, isolated = prune_low_degree(h, config.prune_threshold)
        acct.type_i += removed
        acct.num_pruned += int(isolated.size)
        for comp in connected_components(pruned):
            root_ids = ids[comp]
            if comp.size == 1:
                blocks.append((root_ids, BlockResistance(0.0, True)))
                continue
            sub = pruned if comp.size == pruned.n else induced_subgraph(pruned, comp)[0]
            # one solver for the sketch and the cut or the certificate,
            # released before the next
            solver = LaplacianSolver(sub, method)
            u, v, estimate = furthest_pair(sub, cfg, solver)
            # an estimate that ties the target accepts, whatever its rounding
            if estimate <= config.resistance_target * (1.0 + TIE_TOLERANCE):
                blocks.append((root_ids, _certify_block(solver, cfg, estimate)))
                del solver
                continue
            cut = _far_pair_cut(solver, DEFAULT_EPSILON, u, v, estimate)
            del solver
            small_graph, _ = induced_subgraph(sub, cut.subset)
            small_ids = root_ids[cut.subset]
            acct.charge_cut(small_graph, small_ids,
                            cut.stats.boundary_weight, cut.stats.volume)
            rest = np.delete(np.arange(sub.n), cut.subset)
            rest_graph, _ = induced_subgraph(sub, rest)
            # smaller-volume side is processed first (LIFO)
            work.append((rest_graph, root_ids[rest], depth + 1))
            work.append((small_graph, small_ids, depth + 1))

    blocks.sort(key=lambda b: int(b[0][0]))
    cut_weight = acct.type_i + acct.type_ii
    part = Partition(blocks=[b for b, _ in blocks], cut_weight=cut_weight)
    report = DecompositionReport(
        loss_fraction=cut_weight / g.total_weight if g.total_weight > 0 else 0.0,
        per_block_rdiam=[r for _, r in blocks],
        psi=acct.psi,
        type_i_weight=acct.type_i,
        type_ii_weight=acct.type_ii,
        cut_weight=cut_weight,
        uncharged_cut_weight=acct.uncharged,
        charge_volumes=acct.charge_volumes,
        num_sparse_cuts=acct.num_cuts,
        num_pruned_vertices=acct.num_pruned,
        config=config,
    )
    return part, report


def partition(g: WeightedGraph, delta: float,
              cfg: SketchConfig | None = None,
              method: str = "auto") -> tuple[Partition, DecompositionReport]:
    """Partition ``g`` so that only about a 1/delta weight fraction of edges
    crosses blocks while every block keeps a bounded resistance diameter.

    Parameters are derived and validated by
    :meth:`DecompositionConfig.for_graph`; see
    :func:`partition_with_config` to run off the validated regime.
    """
    return partition_with_config(g, DecompositionConfig.for_graph(g, delta), cfg, method)


def _as_blocks(p) -> list[np.ndarray]:
    """Each block's distinct ids, ascending. A block that is not a sequence
    of integers (bool, float, str and None are not) is a ValueError."""
    raw = p.blocks if isinstance(p, Partition) else p
    blocks = []
    for i, b in enumerate(raw):
        ids = b.tolist() if isinstance(b, np.ndarray) else b
        if not isinstance(ids, (list, tuple, range)) or not all(map(_is_int, ids)):
            raise ValueError(f"block {i} is not a sequence of integer vertex ids")
        blocks.append(np.unique(np.asarray(ids, dtype=np.int64)))
    return blocks


def verify_partition(g: WeightedGraph, p, delta: float,
                     cfg: SketchConfig | None = None,
                     method: str = "auto") -> VerificationRecord:
    """Independently recheck a partition against the loss and resistance
    bounds (:data:`C_LOSS`/delta and :data:`C_RES`·delta³·n/w(E)), certifying
    every block afresh from one solver per block; a disconnected block has
    infinite diameter. Rejects inputs that are not a partition of V, a
    ``delta`` that is not a positive number, and an unknown ``method``."""
    if not delta > 0:  # NaN fails too
        raise ValueError(f"delta must be positive, got {delta}")
    _check_method(method)  # also where no solver is built
    cfg = cfg or SketchConfig()
    blocks = _as_blocks(p)

    def certify(b: np.ndarray) -> BlockResistance:
        if b.size < 2:
            return BlockResistance(0.0, True)
        try:
            solver = LaplacianSolver(induced_subgraph(g, b)[0], method)
        except DisconnectedGraphError:
            return BlockResistance(math.inf, True)
        return _certify_block(solver, cfg)

    # a generator: blocks are certified only once the cover has been checked
    return _verification_record(g, blocks, delta, (certify(b) for b in blocks))


def _verification_record(g: WeightedGraph, blocks: list[np.ndarray], delta: float,
                         rdiams: Iterable[BlockResistance]) -> VerificationRecord:
    """The verification record of ``blocks`` given their certificates.

    The cover, cut weight and loss come from ``g``; ``rdiams`` is consumed
    only after the cover is checked."""
    delta = _as_float(delta)
    label = np.full(g.n, -1, dtype=np.int64)
    total = 0
    for i, b in enumerate(blocks):
        if b.size and (b[0] < 0 or b[-1] >= g.n):
            raise ValueError(f"block {i} references vertices outside [0, {g.n})")
        if (label[b] != -1).any():
            raise ValueError(f"block {i} overlaps an earlier block")
        label[b] = i
        total += b.size
    if total != g.n or (label == -1).any():
        raise ValueError("blocks do not cover every vertex exactly once")

    eu, ev, ew = g.edges()
    cut_weight = float(ew[label[eu] != label[ev]].sum())
    loss_fraction = cut_weight / g.total_weight if g.total_weight > 0 else 0.0
    loss_bound = C_LOSS / delta

    rdiams = list(rdiams)
    # delta·delta·delta saturates to inf where ** would overflow
    rdiam_bound = (C_RES * (delta * delta * delta) * g.n / g.total_weight
                   if g.total_weight > 0 else math.inf)
    max_rdiam = max((r.value for r in rdiams), default=0.0)
    return VerificationRecord(
        cut_weight=cut_weight,
        loss_fraction=loss_fraction,
        loss_bound=loss_bound,
        loss_ok=loss_fraction <= loss_bound,
        block_rdiams=rdiams,
        rdiam_bound=rdiam_bound,
        rdiam_ok=max_rdiam <= rdiam_bound,
    )

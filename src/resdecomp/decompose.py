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
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, connected_components, induced_subgraph
from .linalg import SolverOptions, exact_resistance_diameter
from .sketch import SketchConfig, furthest_pair
from .sweep import _far_pair_cut

# Verification constants, calibrated on the hypercube/grid benchmark family
# and frozen: observed loss fractions stay well under 1/delta and block
# resistance diameters far below the budget, so the published starting
# points hold with ample margin.
C_LOSS = 8.0
C_RES = 32.0

# Blocks up to this many vertices get the dense resistance-diameter oracle;
# larger ones get a certified 2·e^beta ≈ 3 times the sketch estimate.
ORACLE_BLOCK_LIMIT = 2048


@dataclass(frozen=True)
class DecompositionConfig:
    """Frozen parameters of one decomposition run.

    ``cut_budget`` is the weight the run may cut (w(E)/delta at
    construction); ``resistance_target`` the per-block resistance level the
    recursion accepts; both stay fixed across all recursion levels, as does
    ``n_original``. Use :meth:`for_graph` to derive and validate them; direct
    construction performs no checks (useful for experiments off the
    guaranteed regime).
    """
    delta: float
    n_original: int
    cut_budget: float
    resistance_target: float
    epsilon: float = 0.25
    c_r: float = 1.0

    @property
    def prune_threshold(self) -> float:
        return self.cut_budget / (2.0 * self.n_original)

    @classmethod
    def for_graph(cls, g: WeightedGraph, delta: float, c_r: float = 1.0,
                  epsilon: float = 0.25) -> "DecompositionConfig":
        if g.n == 0:
            raise ValueError("graph must be non-empty")
        if delta < 2:
            raise ValueError(f"delta must be at least 2, got {delta}")
        if c_r * delta ** 2 < 4.0 / epsilon:
            raise ValueError(
                f"c_r * delta^2 = {c_r * delta ** 2:g} is below the charge-amortization "
                f"floor {4.0 / epsilon:g}; raise delta (or c_r) so the per-edge charge "
                f"bound applies")
        budget = g.total_weight / delta
        target = c_r * delta ** 2 * g.n / budget if budget > 0 else math.inf
        return cls(delta=delta, n_original=g.n, cut_budget=budget,
                   resistance_target=target, epsilon=epsilon, c_r=c_r)


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
    or (when ``certified_exact`` is false) an upper bound of three times a
    sketch estimate."""
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
    resistance_target: float

    @property
    def passed(self) -> bool:
        return self.loss_ok and self.rdiam_ok


def prune_low_degree(h: WeightedGraph, threshold: float) -> tuple[WeightedGraph, float, np.ndarray]:
    """Repeatedly delete all edges at vertices of degree <= threshold.

    Returns the pruned graph (same vertex set), the removed edge weight,
    and the vertices the process left with no edges. Idempotent on its own
    output.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    deg = h.degrees.copy()
    killed = np.zeros(h.n, dtype=bool)
    queued = np.zeros(h.n, dtype=bool)
    stack = list(np.flatnonzero((deg > 0) & (deg <= threshold)))
    queued[stack] = True
    while stack:
        v = stack.pop()
        if killed[v]:
            continue
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
        eu, ev, _ = root.edges()
        self.edge_index = {(int(a), int(b)): i for i, (a, b) in enumerate(zip(eu, ev))}
        self.psi = np.zeros(root.m)
        self.charge_volumes: dict[int, list[float]] = {}
        self.type_i = 0.0
        self.type_ii = 0.0
        self.uncharged = 0.0
        self.num_cuts = 0
        self.num_pruned = 0

    def charge_cut(self, sub: WeightedGraph, root_ids: np.ndarray,
                   subset: np.ndarray, boundary_weight: float, side_volume: float) -> None:
        self.num_cuts += 1
        self.type_ii += boundary_weight
        mask = np.zeros(sub.n, dtype=bool)
        mask[subset] = True
        eu, ev, ew = sub.edges()
        internal = mask[eu] & mask[ev]
        internal_weight = float(ew[internal].sum())
        if internal_weight <= 0:
            self.uncharged += boundary_weight
            return
        charge = boundary_weight / internal_weight
        for a, b in zip(root_ids[eu[internal]], root_ids[ev[internal]]):
            i = self.edge_index[(int(min(a, b)), int(max(a, b)))]
            self.psi[i] += charge
            self.charge_volumes.setdefault(i, []).append(side_volume)


def _block_resistance(g: WeightedGraph, block: np.ndarray,
                      cfg: SketchConfig, opts: SolverOptions,
                      oracle_limit: int = ORACLE_BLOCK_LIMIT) -> BlockResistance:
    if block.size <= 1:
        return BlockResistance(0.0, True)
    sub, _ = induced_subgraph(g, block)
    if len(connected_components(sub)) > 1:
        return BlockResistance(math.inf, True)
    return _connected_block_resistance(sub, cfg, opts, oracle_limit)


def _connected_block_resistance(sub: WeightedGraph, cfg: SketchConfig,
                                opts: SolverOptions, oracle_limit: int,
                                estimate: float | None = None) -> BlockResistance:
    # The dense oracle up to ``oracle_limit`` vertices; beyond it 2·e^beta
    # times the far-pair estimate, sketched here unless the caller has it.
    if sub.n <= oracle_limit:
        return BlockResistance(exact_resistance_diameter(sub), True)
    if estimate is None:
        _, _, estimate = furthest_pair(sub, cfg, opts)
    return BlockResistance(2.0 * math.exp(cfg.beta) * estimate, False)


def partition_with_config(g: WeightedGraph, config: DecompositionConfig,
                          cfg: SketchConfig | None = None,
                          opts: SolverOptions | None = None,
                          ) -> tuple[Partition, DecompositionReport]:
    """Run the decomposition with explicit (possibly unvalidated) parameters."""
    cfg = cfg or SketchConfig()
    opts = opts or SolverOptions()
    if g.n == 0:
        raise ValueError("graph must be non-empty")

    acct = _Accounting(g)
    # (root ids, certificate) per block. Pruning strips only edges at the
    # vertices it isolates, so an accepted component's subgraph equals the
    # root's induced subgraph on its ids and is certified where it is emitted.
    blocks: list[tuple[np.ndarray, BlockResistance]] = []
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
            sub, _ = induced_subgraph(pruned, comp)
            u, v, estimate = furthest_pair(sub, cfg, opts)
            if estimate <= config.resistance_target:
                blocks.append((root_ids, _connected_block_resistance(
                    sub, cfg, opts, ORACLE_BLOCK_LIMIT, estimate)))
                continue
            cut = _far_pair_cut(sub, config.epsilon, opts, u, v, estimate)
            acct.charge_cut(sub, root_ids, cut.subset,
                            cut.stats.boundary_weight, cut.stats.volume)
            inside = np.zeros(sub.n, dtype=bool)
            inside[cut.subset] = True
            small_graph, _ = induced_subgraph(sub, cut.subset)
            rest = np.flatnonzero(~inside)
            rest_graph, _ = induced_subgraph(sub, rest)
            # smaller-volume side is processed first (LIFO)
            work.append((rest_graph, root_ids[rest], depth + 1))
            work.append((small_graph, root_ids[cut.subset], depth + 1))

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
              opts: SolverOptions | None = None,
              c_r: float = 1.0) -> tuple[Partition, DecompositionReport]:
    """Partition ``g`` so that only about a 1/delta weight fraction of edges
    crosses blocks while every block keeps a bounded resistance diameter.

    Parameters are derived and validated by
    :meth:`DecompositionConfig.for_graph`; see
    :func:`partition_with_config` to run off the validated regime.
    """
    return partition_with_config(g, DecompositionConfig.for_graph(g, delta, c_r), cfg, opts)


def _as_blocks(p) -> list[np.ndarray]:
    raw = p.blocks if isinstance(p, Partition) else p
    return [np.unique(np.asarray(list(b), dtype=np.int64)) for b in raw]


def verify_partition(g: WeightedGraph, p, delta: float,
                     c_loss: float = C_LOSS, c_res: float = C_RES,
                     c_r: float = 1.0,
                     oracle_limit: int = ORACLE_BLOCK_LIMIT,
                     cfg: SketchConfig | None = None,
                     opts: SolverOptions | None = None) -> VerificationRecord:
    """Independently recheck a partition against the loss and resistance
    bounds. Rejects inputs that are not a partition of V."""
    cfg = cfg or SketchConfig()
    opts = opts or SolverOptions()
    blocks = _as_blocks(p)
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
    loss_bound = c_loss / delta

    rdiams = [_block_resistance(g, b, cfg, opts, oracle_limit) for b in blocks]
    if g.total_weight > 0:
        rdiam_bound = c_res * delta ** 3 * g.n / g.total_weight
        resistance_target = c_r * delta ** 3 * g.n / g.total_weight
    else:
        rdiam_bound = math.inf
        resistance_target = math.inf
    max_rdiam = max((r.value for r in rdiams), default=0.0)
    return VerificationRecord(
        cut_weight=cut_weight,
        loss_fraction=loss_fraction,
        loss_bound=loss_bound,
        loss_ok=loss_fraction <= loss_bound,
        block_rdiams=rdiams,
        rdiam_bound=rdiam_bound,
        rdiam_ok=max_rdiam <= rdiam_bound,
        resistance_target=resistance_target,
    )

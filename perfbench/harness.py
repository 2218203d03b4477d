"""Workloads, operations, output checks and metrics of the benchmark.

One operation is one top-level call on one input graph: a partition plus its
verification, or one ``find_sparse_cut``. Inputs are generated from the
workload seed; the library receives only the generated graphs (and, for the
CLI workload, the sketch seed it is run with).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import resdecomp as rd
from resdecomp import cli
from resdecomp.decompose import DecompositionConfig

DELTA = 8.0
# Resistance target of the off-regime many-cut run: far below what
# DecompositionConfig.for_graph derives, so the recursion makes about 85 cuts
# on grid2d(24).
MANYCUT_TARGET = 2.0
REL_TOL = 1e-9


@dataclass(frozen=True)
class Instance:
    label: str
    graph: rd.WeightedGraph
    seed: int
    path: str | None = None


@dataclass(frozen=True)
class PartitionOutput:
    """A partition and the report fields the checks need, from the library
    or from the CLI's JSON report."""
    blocks: list
    cut_weight: float
    type_i_weight: float
    type_ii_weight: float
    uncharged_cut_weight: float
    psi_weighted_sum: float
    block_rdiams: list
    resistance_target: float
    num_sparse_cuts: int
    verification_passed: bool


@dataclass
class OpRecord:
    op: int
    instance: str
    n: int
    m: int
    seed: int
    seconds: float
    error: str | None = None
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "partition" or "cut"
    why: str
    make_inputs: Callable[[int, bool, Path], list]
    run_op: Callable[[Instance], object]


# ---------------------------------------------------------------- inputs

def _log_uniform_weights(g: rd.WeightedGraph, spread: float, rng) -> rd.WeightedGraph:
    """Same edges, weights log-uniform on [1, spread]."""
    w = np.exp(rng.uniform(0.0, math.log(spread), g.m))
    return rd.build_graph(g.n, zip(g.edge_u.tolist(), g.edge_v.tolist(), w.tolist()))


def _hypercube_inputs(seed, tiny, outdir):
    dim = 6 if tiny else 12
    g = rd.hypercube(dim)
    path = outdir / f"hypercube-{dim}.edges"
    rd.write_edgelist(g, path)
    return [Instance(f"hypercube({dim}), sketch seed {seed}", g, seed, str(path))]


def _manycut_inputs(seed, tiny, outdir):
    # The grid is the same for every seed: relabelling it or changing the
    # sketch seed moves the number of cuts by +-20% per input, which swamped
    # the timing.
    side = 8 if tiny else 24
    return [Instance(f"grid2d({side})", rd.grid2d(side), seed)]


def _mesh_inputs(spread, draws, full_side):
    # The cut's certificate ratio depends on the drawn weights; more draws per
    # pass steady its median across seeds.
    def make(seed, tiny, outdir):
        side = 8 if tiny else full_side
        base = rd.grid2d(side)
        rng = np.random.default_rng(seed)
        return [Instance(f"grid2d({side}) weight spread {spread:g}, draw {i}",
                         _log_uniform_weights(base, spread, rng), seed) for i in range(draws)]
    return make


def _expander_inputs(seed, tiny, outdir):
    n = 64 if tiny else 10000
    return [Instance(f"random_regular({n}, 4)", rd.random_regular(n, 4, seed), seed)]


# ------------------------------------------------------------ operations

def _partition_op(inst: Instance) -> PartitionOutput:
    g = inst.graph
    config = DecompositionConfig(delta=DELTA, n_original=g.n, cut_budget=g.total_weight / DELTA,
                                 resistance_target=MANYCUT_TARGET)
    part, report = rd.partition_with_config(g, config)
    rec = rd.verify_partition(g, part, DELTA)
    return PartitionOutput(
        blocks=part.blocks, cut_weight=part.cut_weight,
        type_i_weight=report.type_i_weight, type_ii_weight=report.type_ii_weight,
        uncharged_cut_weight=report.uncharged_cut_weight,
        psi_weighted_sum=float(report.psi @ g.edge_w),
        block_rdiams=[r.value for r in report.per_block_rdiam],
        resistance_target=config.resistance_target,
        num_sparse_cuts=report.num_sparse_cuts, verification_passed=rec.passed)


def _cli_decompose_op(inst: Instance) -> PartitionOutput:
    argv = ["decompose", "--graph", inst.path, "--delta", f"{DELTA:g}", "--exact-verify",
            "--seed", str(inst.seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.execute(argv)
    report = json.loads(out.getvalue())
    if code != 0:
        raise RuntimeError(f"CLI exit code {code}: {report.get('error')}")
    r = report["results"]
    return PartitionOutput(
        blocks=r["blocks"], cut_weight=r["cut_weight"],
        type_i_weight=r["type_i_weight"], type_ii_weight=r["type_ii_weight"],
        uncharged_cut_weight=r["uncharged_cut_weight"],
        psi_weighted_sum=r["psi_weighted_sum"],
        # the report writes a non-finite diameter as a string such as "inf"
        block_rdiams=[float(b["value"]) for b in r["per_block_rdiam"]],
        resistance_target=report["config"]["resistance_target"],
        num_sparse_cuts=r["num_sparse_cuts"],
        verification_passed=r["verification"]["passed"])


def _cut_op(inst: Instance):
    return rd.find_sparse_cut(inst.graph)


# ---------------------------------------------------------------- checks

def _close(problems, what, got, want):
    if not math.isclose(got, want, rel_tol=REL_TOL):
        problems.append(f"{what}: {got!r} != {want!r}")


def check_partition(g: rd.WeightedGraph, out: PartitionOutput) -> list[str]:
    """Problems with a partition output; empty when it is correct."""
    problems = []
    label = np.full(g.n, -1, dtype=np.int64)
    for i, block in enumerate(out.blocks):
        b = np.asarray(block, dtype=np.int64)
        if b.size == 0 or b.min() < 0 or b.max() >= g.n:
            problems.append(f"block {i} is empty or leaves [0, {g.n})")
        elif np.unique(b).size != b.size or (label[b] != -1).any():
            problems.append(f"block {i} overlaps itself or an earlier block")
        else:
            label[b] = i
    uncovered = int((label == -1).sum())
    if uncovered:
        problems.append(f"{uncovered} vertices are in no block")
    if problems:
        return problems
    cut = float(g.edge_w[label[g.edge_u] != label[g.edge_v]].sum())
    _close(problems, "reported cut weight", out.cut_weight, cut)
    _close(problems, "type i + type ii weight", out.type_i_weight + out.type_ii_weight, cut)
    _close(problems, "sum of psi_e * w_e", out.psi_weighted_sum,
           out.type_ii_weight - out.uncharged_cut_weight)
    if out.verification_passed is not True:
        problems.append("verification did not pass")
    return problems


def check_cut(g: rd.WeightedGraph, res) -> list[str]:
    """Problems with a find_sparse_cut result; empty when it is correct."""
    subset = np.asarray(res.subset)
    if not 0 < subset.size < g.n:
        return [f"cut side has {subset.size} of {g.n} vertices"]
    stats = rd.cut_stats(g, subset)
    problems = []
    if not (np.array_equal(stats.subset, subset) and np.array_equal(res.stats.subset, subset)):
        problems.append("cut subset is not the sorted vertex set the stats describe")
    _close(problems, "boundary weight", res.stats.boundary_weight, stats.boundary_weight)
    _close(problems, "volume", res.stats.volume, stats.volume)
    _close(problems, "conductance", res.stats.conductance, stats.conductance)
    _close(problems, "certificate_c", res.certificate_c,
           stats.conductance * stats.volume ** (0.5 - res.epsilon))
    return problems


def check_output(kind: str, inst: Instance, output) -> tuple[list, dict, dict]:
    """Problems, quality figures and per-operation counts of one output.
    ``cert_ratio`` is the certified quantity over its target: the largest
    block resistance diameter over ``resistance_target`` for a partition,
    ``certificate_c / target_c`` for a cut."""
    g = inst.graph
    if kind == "partition":
        problems = check_partition(g, output)
        rdiam_ratio = max(output.block_rdiams) / output.resistance_target
        quality = {"loss_fraction": output.cut_weight / g.total_weight,
                   "rdiam_ratio_max": rdiam_ratio, "cert_ratio": rdiam_ratio}
        counts = {"decompose.cuts": output.num_sparse_cuts,
                  "decompose.blocks": len(output.blocks),
                  "decompose.pruned_weight": output.type_i_weight}
    else:
        problems = check_cut(g, output)
        score_ratio = output.certificate_c / output.target_c
        quality = {"cut_score_ratio": score_ratio, "cert_ratio": score_ratio}
        counts = {}
    return problems, quality, counts


# --------------------------------------------------------------- running

def run_once(workload: Workload, inst: Instance, op_id: int, tracer=None) -> OpRecord:
    """Run and check one operation. A raised exception or a failed check
    marks the operation failed; neither stops the run."""
    rec = OpRecord(op=op_id, instance=inst.label, n=inst.graph.n, m=inst.graph.m,
                   seed=inst.seed, seconds=0.0)
    scope = tracer.operation(op_id) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            output = workload.run_op(inst)
    except Exception:  # the run goes on; the failure is recorded and counted
        rec.error = traceback.format_exc(limit=-2).strip()
    rec.seconds = time.perf_counter() - start
    if rec.error is None:
        try:
            rec.problems, rec.quality, rec.counts = check_output(workload.kind, inst, output)
        except Exception:  # an output the checks cannot read is a wrong output
            rec.problems = [f"check raised: {traceback.format_exc(limit=-1).strip()}"]
    return rec


def run_timed(workload: Workload, instances: list, seconds: float, tracer=None,
              between_ops=None) -> list:
    """Whole passes over the instances while the next pass, predicted to
    last as long as the previous one, still ends within ``seconds`` of
    operation time. At least one pass runs, so every instance is measured.
    ``between_ops(elapsed)``, if given, is called after each operation with
    the operation time so far; the time it takes is not counted."""
    records = []
    elapsed = 0.0
    while True:
        pass_seconds = 0.0
        for inst in instances:
            start = time.perf_counter()
            records.append(run_once(workload, inst, len(records), tracer))
            op_seconds = time.perf_counter() - start
            elapsed += op_seconds
            pass_seconds += op_seconds
            if between_ops is not None:
                between_ops(elapsed)
        if elapsed + pass_seconds > seconds:
            return records


def op_p50(records: list) -> float:
    """Median wall time per operation; failed operations sort above every
    success."""
    ordered = [r.seconds for r in sorted(records, key=lambda r: (not r.ok, r.seconds))]
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def end_to_end(records: list) -> dict:
    """Operation metrics of a run, with tracing off. Quality figures are
    None where the workload's operation does not produce them."""
    ok = [r for r in records if r.ok]

    def quality(key, reduce):
        values = [r.quality[key] for r in ok if key in r.quality]
        return reduce(values) if values else None

    return {
        "op_p50_s": op_p50(records),
        "edges_per_s": sum(r.m for r in ok) / sum(r.seconds for r in records),
        "fail_frac": (len(records) - len(ok)) / len(records),
        "loss_fraction": quality("loss_fraction", statistics.fmean),
        "rdiam_ratio_max": quality("rdiam_ratio_max", max),
        "cut_score_ratio": quality("cut_score_ratio", statistics.median),
        "cert_ratio": quality("cert_ratio", statistics.median),
    }


WORKLOADS = {w.name: w for w in (
    Workload("hypercube-cli", "partition",
             "Expander above the dense-solve limit run through the CLI with --exact-verify: "
             "PCG solves, probe sketches and block certification dominate; the sweep and "
             "recursion do almost nothing.",
             _hypercube_inputs, _cli_decompose_op),
    Workload("grid-manycut", "partition",
             "Off-regime grid with resistance target 2: about 85 cuts per operation, so many "
             "small dense factorizations, Gram SVDs, sweeps and subgraph churn, and no PCG.",
             _manycut_inputs, _partition_op),
    Workload("mesh-weighted", "cut",
             "Planar meshes with weight spread 10 just above the dense-solve limit, on the "
             "iterative path where a direct sparse solver should win.",
             _mesh_inputs(10.0, 5, 46), _cut_op),
    Workload("expander-10k", "cut",
             "Random 4-regular expander whose sweep subsets and probe matrix dominate memory, "
             "so peak RSS measures the program's own arrays rather than its imports.",
             _expander_inputs, _cut_op),
    Workload("mesh-skewed", "cut",
             "Weight spread 30 on grid2d(60): PCG raises ConvergenceError today, so this "
             "known failure shows in fail_frac. Not in BENCHMARK.json, whose operations "
             "must all succeed.",
             _mesh_inputs(30.0, 1, 60), _cut_op),
)}

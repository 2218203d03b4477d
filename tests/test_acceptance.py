"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""
import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

import resdecomp as rd
from resdecomp import decompose, linalg
from resdecomp.cli import execute
from resdecomp.sketch import _num_probes

from conftest import (exact_reff, exact_reff_matrix, path_graph, skewed, target_scaled_config,
                      two_triangles_bridge)

BETA = math.log(1.5)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def hypercube10_run():
    g = rd.hypercube(10)
    started = time.monotonic()
    part, report = rd.partition(g, 8.0)
    record = rd.verify_partition(g, part, 8.0)
    elapsed = time.monotonic() - started
    return g, part, report, record, elapsed


def test_criterion_1_oracle_equivalence(corpus):
    started = time.monotonic()
    worst = 0.0
    for g in corpus:
        zeta = rd.required_solver_accuracy(g, 1e-8)
        solver = rd.LaplacianSolver(g)
        R = exact_reff_matrix(g)
        for s in range(g.n):
            for t in range(s + 1, g.n):
                p = rd.st_potential(solver, s, t, zeta)
                worst = max(worst, abs(float(p[s] - p[t]) - R[s, t]))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-6 and elapsed < 10.0
    _verdict(1, ok, f"potential-vs-oracle resistance, all pairs of 50 graphs: "
                    f"max |diff| = {worst:.3e} (<= 1e-6), elapsed {elapsed:.1f}s (< 10s)")


def test_criterion_2_metric_domination_foster(corpus):
    worst_sym = worst_tri = worst_dom = worst_foster = 0.0
    for g in corpus:
        R = exact_reff_matrix(g)
        worst_sym = max(worst_sym, float(np.abs(R - R.T).max()))
        triple = R[:, :, None] + R[None, :, :]
        worst_tri = max(worst_tri, float((R[:, None, :] - triple).max()))
        A = g.adjacency_matrix().astype(float)
        A.data = 1.0 / A.data
        dist = csgraph.dijkstra(A, directed=False)
        worst_dom = max(worst_dom, float((R - dist).max()))
        eu, ev, ew = g.edges()
        worst_foster = max(worst_foster, abs(float((ew * R[eu, ev]).sum()) - (g.n - 1)))
    ok = worst_sym <= 1e-9 and worst_tri <= 1e-9 and worst_dom <= 1e-9 and worst_foster <= 1e-6
    _verdict(2, ok, f"metric suite: symmetry {worst_sym:.1e}, triangle {worst_tri:.1e}, "
                    f"domination {worst_dom:.1e} (<= 1e-9 each), foster {worst_foster:.1e} (<= 1e-6)")


def test_criterion_3_sketch_guarantee(corpus):
    # every corpus graph (n <= 12) has at least as many probes as edges, so
    # the sketch runs its exact regime, draws no probes and ignores the
    # seed: one row per graph, bit-identical across seeds, must meet the
    # bracket on every graph. test_criterion_3_sketch_guarantee_below_edge_count
    # guards the probe path
    bound = math.exp(BETA)
    worst = 1.0
    for g in corpus:
        assert _num_probes(rd.SketchConfig(), g.n) >= g.m
        A = rd.approx_reff_from_source(g, 0, rd.SketchConfig(seed=0))
        for seed in (1, 49):
            again = rd.approx_reff_from_source(g, 0, rd.SketchConfig(seed=seed))
            assert again.tobytes() == A.tobytes()
        ratios = A[1:] / exact_reff_matrix(g)[0, 1:]
        worst = max(worst, ratios.max(), 1.0 / ratios.min())
    ok = worst <= bound
    _verdict(3, ok, f"two-sided e^beta sketch bracket held on all {len(corpus)} corpus graphs "
                    f"(exact regime, seeds 0, 1, 49 bit-identical): worst ratio {worst:.3f} "
                    f"(<= {bound:.3f})")


def test_criterion_3_sketch_guarantee_below_edge_count():
    # the corpus above has k >= m probes, where the estimate is exact; these
    # graphs have k < m, where the bracket rests on the random probes
    bound = math.exp(BETA)
    worst = 1.0
    for g in (rd.grid2d(30), rd.random_regular(800, 6, 0), rd.hypercube(9)):
        assert _num_probes(rd.SketchConfig(), g.n) < g.m
        R = exact_reff_matrix(g)
        solver = rd.LaplacianSolver(g)
        for seed in range(10):
            A = rd.approx_reff_from_source(g, 0, rd.SketchConfig(seed=seed), solver)
            ratios = A[1:] / R[0, 1:]
            worst = max(worst, ratios.max(), 1.0 / ratios.min())
    ok = worst <= bound
    _verdict(3, ok, f"e^beta sketch bracket with fewer probes than edges, 3 graphs x 10 "
                    f"seeds: worst ratio {worst:.3f} (<= {bound:.3f})")


def test_criterion_4_furthest_pair_factor(corpus100):
    worst = math.inf
    for g in corpus100:
        u, v, _ = rd.furthest_pair(g)
        R = exact_reff_matrix(g)
        worst = min(worst, R[u, v] / R.max())
    ok = worst >= 1 / 3
    _verdict(4, ok, f"furthest-pair factor on 100 graphs: min Reff(u,v*)/Rdiam = "
                    f"{worst:.3f} (>= 1/3)")


def test_criterion_5_grid_growth():
    started = time.monotonic()
    r16 = exact_reff_matrix(rd.grid2d(16)).max()
    r32 = exact_reff_matrix(rd.grid2d(32)).max()
    elapsed = time.monotonic() - started
    ratio = r32 / r16
    ok = ratio >= 1.1 and elapsed < 120.0
    _verdict(5, ok, f"grid resistance diameter growth: {r32:.4f}/{r16:.4f} = {ratio:.4f} "
                    f"(>= 1.1), elapsed {elapsed:.1f}s (< 2min)")


def test_criterion_6_barbell_sparse_cuts():
    res4 = rd.find_sparse_cut(rd.barbell(4), 0.25)
    res8 = rd.find_sparse_cut(rd.barbell(8), 0.25)
    ok = (res4.stats.conductance == 1.0 / 13.0
          and sorted(res4.subset.tolist()) in ([0, 1, 2, 3], [4, 5, 6, 7])
          and res8.stats.conductance == 1.0 / 57.0)
    _verdict(6, ok, f"barbell bridge cuts: phi(4) = {res4.stats.conductance} (= 1/13), "
                    f"phi(8) = {res8.stats.conductance} (= 1/57)")


def test_criterion_7_hypercube_decomposition(hypercube10_run):
    g, part, report, record, elapsed = hypercube10_run
    r_target = report.config.resistance_target  # delta^3 * n / w(E) = 102.4
    exact_ok = all(br.value <= 3 * r_target + 1e-9
                   for br in report.per_block_rdiam if br.certified_exact)
    ok = (report.loss_fraction <= 1.0 and record.loss_ok and record.rdiam_ok
          and exact_ok and elapsed < 60.0)
    _verdict(7, ok, f"hypercube(10) delta=8: loss {report.loss_fraction:.3f} (<= 1), "
                    f"verify loss_ok={record.loss_ok} rdiam_ok={record.rdiam_ok}, "
                    f"exact blocks <= 3R={3 * r_target:.1f}, elapsed {elapsed:.1f}s (< 60s)")


def test_criterion_8_token_accounting(hypercube10_run):
    g10, _, rep10, _, _ = hypercube10_run
    runs = [(g10, rep10)]

    g_path = path_graph(40)
    _, rep = rd.partition_with_config(g_path, target_scaled_config(g_path, 2.0, 4.0))
    runs.append((g_path, rep))

    g_tri = two_triangles_bridge()
    config = rd.DecompositionConfig(delta=2.0, n_original=6, cut_budget=3.5,
                                    resistance_target=1.5)
    _, rep = rd.partition_with_config(g_tri, config)
    runs.append((g_tri, rep))

    g_grid = rd.grid2d(12)
    config = rd.DecompositionConfig(delta=4.0, n_original=g_grid.n,
                                    cut_budget=g_grid.total_weight / 4,
                                    resistance_target=2.0)
    _, rep = rd.partition_with_config(g_grid, config)
    runs.append((g_grid, rep))

    worst_rel = 0.0
    budget_ok = True
    for g, rep in runs:
        charged = float((rep.psi * g.edge_w).sum())
        scale = max(rep.type_ii_weight, 1.0)
        worst_rel = max(worst_rel, abs(charged - rep.type_ii_weight) / scale)
        budget = rep.config.cut_budget / 2
        budget_ok &= rep.type_i_weight <= budget + 1e-12
    ok = worst_rel <= 1e-9 and budget_ok
    _verdict(8, ok, f"token accounting over {len(runs)} runs: max relative charge "
                    f"mismatch {worst_rel:.1e} (<= 1e-9), type-i within W/2: {budget_ok}")


def test_criterion_9_scaling_invariances(corpus):
    alpha = 3.7
    worst_reff = worst_phi = 0.0
    rng = np.random.default_rng(99)
    for g in corpus[:15]:
        h = rd.scale_weights(g, alpha)
        r = exact_reff(g, 0, g.n - 1)
        worst_reff = max(worst_reff, abs(exact_reff(h, 0, g.n - 1) - r / alpha) / (r / alpha))
        s = rng.permutation(g.n)[: max(1, g.n // 2)]
        a, b = rd.cut_stats(g, s), rd.cut_stats(h, s)
        if a.conductance is not None:
            worst_phi = max(worst_phi, abs(b.conductance - a.conductance))

    g = path_graph(40)
    h = rd.scale_weights(g, alpha)
    p1, _ = rd.partition_with_config(g, target_scaled_config(g, 2.0, 4.0))
    p2, _ = rd.partition_with_config(h, target_scaled_config(h, 2.0, 4.0))
    blocks_same = [x.tolist() for x in p1.blocks] == [y.tolist() for y in p2.blocks]

    ok = worst_reff <= 1e-9 and worst_phi <= 1e-12 and blocks_same
    _verdict(9, ok, f"scaling by {alpha}: reff rel err {worst_reff:.1e} (<= 1e-9), "
                    f"conductance drift {worst_phi:.1e}, blocks unchanged: {blocks_same}")


def test_criterion_10_deterministic_reports(capsys, tmp_path):
    graph_file = tmp_path / "b4.txt"
    rd.write_edgelist(rd.barbell(4), graph_file)

    outputs = []
    for _ in range(2):
        assert execute(["decompose", "--graph", str(graph_file), "--delta", "4",
                        "--seed", "11", "--exact-verify"]) == 0
        outputs.append(capsys.readouterr().out)
    decompose_same = outputs[0] == outputs[1]

    outputs = []
    for _ in range(2):
        assert execute(["cut", "--graph", str(graph_file), "--seed", "11"]) == 0
        outputs.append(capsys.readouterr().out)
    cut_same = outputs[0] == outputs[1]

    ok = decompose_same and cut_same
    with capsys.disabled():
        _verdict(10, ok, f"byte-identical reports on rerun: decompose={decompose_same}, "
                         f"cut={cut_same}")


AUDIT_GRAPHS = (rd.grid2d(8), rd.hypercube(6), rd.random_regular(100, 4, 0), rd.barbell(6))
AUDIT_SKEWS = (1.0, 1e2, 1e4, 1e6)
AUDIT_DELTAS = (4.0, 8.0, 16.0)
# 32 puts most work items above the limit, where sparse LU, PCG and the
# 2·e^beta estimate certificate run
AUDIT_LOW_LIMIT = 32
# every case the grid admits, at the default limit and at the lowered one
AUDIT_GRID = [(base, s, delta, limit)
              for limit in (linalg.DENSE_SOLVE_LIMIT, AUDIT_LOW_LIMIT)
              for base, s, delta in itertools.product(AUDIT_GRAPHS, AUDIT_SKEWS, AUDIT_DELTAS)]


@pytest.mark.parametrize("cases", [
    pytest.param(AUDIT_GRID, id="grid"),
    pytest.param([(rd.hypercube(7), 1e6, 4.0, AUDIT_LOW_LIMIT)],
                 id="hypercube7-s1e6-delta4-limit32", marks=pytest.mark.xfail(
                     strict=True, raises=rd.ConvergenceError,
                     reason="PCG stalls at attained zeta 6.32e-6 (1.76e-12 asked) on a "
                            "skewed expander; ROADMAP direction 1 (a tree preconditioner)")),
])
def test_criterion_11_guarantee_audit(monkeypatch, cases):
    # partition, then verify_partition, on weight-skewed inputs; the worst
    # empirical constants are read against the frozen C_LOSS and C_RES
    backends = Counter()

    class Recording(linalg.LaplacianSolver):
        def __init__(self, g, method="auto"):
            super().__init__(g, method)
            backends[self.method] += 1

    monkeypatch.setattr(decompose, "LaplacianSolver", Recording)
    worst_loss = worst_rdiam = 0.0
    estimated = 0
    failed = []
    for base, s, delta, limit in cases:
        monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", limit)
        g = skewed(base, s)
        part, _ = rd.partition(g, delta)
        rec = rd.verify_partition(g, part, delta)
        rdiam = max(r.value for r in rec.block_rdiams)
        worst_loss = max(worst_loss, rec.loss_fraction * delta / decompose.C_LOSS)
        worst_rdiam = max(worst_rdiam, rdiam * g.total_weight
                          / (decompose.C_RES * delta ** 3 * g.n))
        estimated += sum(not r.certified_exact for r in rec.block_rdiams)
        if not rec.passed:
            failed.append(f"{base} s={s:g} delta={delta:g} limit={limit}")
    covered = {"dense", "sparse", "iterative"} <= backends.keys() and estimated > 0
    ok = not failed and covered and worst_loss <= 1.0 and worst_rdiam <= 1.0
    _verdict(11, ok, f"{len(cases)} skewed partitions verified, failed {failed}: worst "
                     f"loss*delta/C_LOSS {worst_loss:.4f}, worst rdiam*w(E)/(C_RES*delta^3*n) "
                     f"{worst_rdiam:.4f} (both <= 1); solvers {dict(sorted(backends.items()))}, "
                     f"{estimated} estimate-certified blocks")

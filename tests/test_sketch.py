import math
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from scipy.linalg import lapack

import resdecomp as rd
from resdecomp import linalg, sketch
from resdecomp.sketch import PROBE_COUNT_CONSTANT, _num_probes

from conftest import (exact_reff, exact_reff_matrix, fix_probe_count, log_uniform_mesh,
                      one_shot_probe_system, path_graph, skewed)


BETA = math.log(1.5)


def record_solves(monkeypatch, before=None):
    """Record each call the sketch makes to ``_solve_in_place`` as
    (start, batch, zeta): start is the first probe row of a probe batch,
    read from the packed signs the same thread handed ``_probe_rhs`` just
    before (0 when it handed all of them), and None for a patch batch.
    ``before(start)`` runs ahead of each call. Probe threads run in any
    order, so read the calls through :func:`by_start_row`."""
    calls = []
    local = threading.local()
    real_rhs, real_solve = sketch._probe_rhs, sketch._solve_in_place

    def rhs(incidence_t, signs, out, width):
        local.start = (0 if signs.base is None else
                       (signs.ctypes.data - signs.base.ctypes.data) // signs.strides[0])
        return real_rhs(incidence_t, signs, out, width)

    def solve(solver, B, zeta):
        start, local.start = getattr(local, "start", None), None
        if before is not None:
            before(start)
        calls.append((start, np.array(B), zeta))
        return real_solve(solver, B, zeta)

    monkeypatch.setattr(sketch, "_probe_rhs", rhs)
    monkeypatch.setattr(sketch, "_solve_in_place", solve)
    return calls


def by_start_row(calls):
    """Recorded calls in start-row order, patch batches last in call order."""
    return sorted(calls, key=lambda call: (call[0] is None, call[0] or 0))


class TestApproxReffFromSource:
    def test_single_edge_within_bracket(self):
        g = rd.build_graph(2, [(0, 1, 1.0)])
        A = rd.approx_reff_from_source(g, 0)
        assert math.exp(-BETA) <= A[1] <= math.exp(BETA)

    def test_path_within_bracket(self):
        A = rd.approx_reff_from_source(path_graph(3), 0)
        assert 4 / 3 <= A[2] <= 3.0

    def test_source_entry_zero(self):
        A = rd.approx_reff_from_source(rd.complete(5), 2)
        assert A[2] == 0.0
        assert (np.delete(A, 2) > 1e-9).all()

    def test_corpus_ratio_within_bracket(self, corpus):
        # the probe budget exceeds the edge count at this scale, so the
        # sketch runs its exact regime and returns the oracle's row
        for g in corpus:
            A = rd.approx_reff_from_source(g, 0)
            R = exact_reff_matrix(g)
            ratios = A[1:] / R[0, 1:]
            assert math.exp(-BETA) <= ratios.min() and ratios.max() <= math.exp(BETA)

    def test_exact_regime_matches_oracle_tightly(self, corpus):
        g = corpus[0]
        A = rd.approx_reff_from_source(g, 0)
        R = exact_reff_matrix(g)
        assert np.allclose(A[1:], R[0, 1:], rtol=1e-7)

    def test_deterministic(self):
        g = rd.grid2d(5)
        cfg = rd.SketchConfig(seed=11)
        a = rd.approx_reff_from_source(g, 0, cfg)
        b = rd.approx_reff_from_source(g, 0, cfg)
        assert np.array_equal(a, b)

    def test_seed_changes_probes(self, monkeypatch):
        g = rd.grid2d(5)
        fix_probe_count(monkeypatch, 20)
        a = rd.approx_reff_from_source(g, 0, rd.SketchConfig(seed=1))
        b = rd.approx_reff_from_source(g, 0, rd.SketchConfig(seed=2))
        assert not np.array_equal(a, b)

    def test_undersampled_regime_positive(self, monkeypatch):
        g = rd.grid2d(8)  # m = 112
        fix_probe_count(monkeypatch, 30)
        A = rd.approx_reff_from_source(g, 0, rd.SketchConfig(seed=5))
        assert (A[1:] > 0).all()

    def test_disconnected_rejected(self):
        g = rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(rd.DisconnectedGraphError):
            rd.approx_reff_from_source(g, 0)

    @pytest.mark.parametrize("g, seed", [(rd.complete(4), 1), (rd.grid2d(3), 3)],
                             ids=["complete4-seed1", "grid3-seed3"])
    def test_vanished_estimates_patched_by_exact_solves(self, monkeypatch, g, seed):
        # one probe misses some directions; those entries come from one
        # batch of pair solves with rows e_u - e_v
        calls = record_solves(monkeypatch)
        fix_probe_count(monkeypatch, 1)
        A = rd.approx_reff_from_source(g, 0, rd.SketchConfig(seed=seed))
        batches = [B for _, B, _ in by_start_row(calls)]
        assert len(batches) == 2
        pairs = batches[1]
        assert (pairs[:, 0] == 1.0).all() and (pairs.sum(axis=1) == 0.0).all()
        for v in pairs.argmin(axis=1):
            assert A[v] == pytest.approx(exact_reff(g, 0, int(v)), abs=1e-9)

    @pytest.mark.parametrize("g, seed", [(rd.complete(4), 1), (rd.grid2d(3), 5)],
                             ids=["complete4-seed1", "grid3-seed5"])
    def test_patch_solves_take_the_probe_zeta(self, monkeypatch, g, seed):
        # with PCG, ζ matters: the patch batch runs at the probes' ζ, and
        # each patched entry lies within (1 ± ζ) of the exact resistance
        calls = record_solves(monkeypatch)
        fix_probe_count(monkeypatch, 1)
        cfg = rd.SketchConfig(seed=seed)
        A = rd.approx_reff_from_source(g, 0, cfg, rd.LaplacianSolver(g, "iterative"))
        batches = [(B, zeta) for _, B, zeta in by_start_row(calls)]
        inv, rank = cholesky_pinv(one_shot_probe_system(g, 1, seed)[1])
        zeta = sketch._probe_zeta(inv, rank, g.m, cfg.beta)
        # the probe rows are stored as float32, which takes 2^-24 of the
        # probe solves' ζ; the patch rows stay float64 and take all of it
        assert zeta >= 2.0 ** -23
        assert [z for _, z in batches] == [zeta - 2.0 ** -24, zeta]
        for v in batches[1][0].argmin(axis=1):
            R = exact_reff(g, 0, int(v))
            assert (1 - zeta) * R <= A[v] <= (1 + zeta) * R

    def test_probe_count_capped_at_edge_count(self, monkeypatch):
        # above the oracle limit a probe count beyond m draws m probes
        g = rd.grid2d(4)
        drawn = []
        real = sketch._probe_system

        def recording(g, k, seed):
            drawn.append(k)
            return real(g, k, seed)

        monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", 1)
        monkeypatch.setattr(sketch, "_probe_system", recording)
        fix_probe_count(monkeypatch, 10 * g.m)
        A = rd.approx_reff_from_source(g, 0)
        assert drawn == [g.m]
        assert np.allclose(A, exact_reff_matrix(g)[0], rtol=1e-9, atol=0.0)

    def test_solver_for_other_graph_rejected(self):
        solver = rd.LaplacianSolver(path_graph(3))
        with pytest.raises(ValueError, match="different graph"):
            rd.approx_reff_from_source(path_graph(3), 0, solver=solver)
        # on one vertex too, where nothing is solved
        with pytest.raises(ValueError, match="different graph"):
            rd.approx_reff_from_source(rd.build_graph(1, []), 0, solver=solver)

    def test_probe_budget_formula(self):
        cfg = rd.SketchConfig()
        assert _num_probes(cfg, 12) == math.ceil(PROBE_COUNT_CONSTANT * math.log(12) / BETA ** 2)

    @pytest.mark.parametrize("u", [True, 1.0, np.float64(2), -1, 16])
    def test_source_must_be_a_vertex_id(self, u):
        # True and 1.0 once answered for vertex 1, True as a (1, 16, 16) array
        g = rd.grid2d(4)
        with pytest.raises(ValueError, match="source"):
            rd.approx_reff_from_source(g, u)
        assert np.array_equal(rd.approx_reff_from_source(g, np.int32(3)),
                              rd.approx_reff_from_source(g, 3))

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            rd.SketchConfig(beta=0.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_beta_must_be_positive_and_finite(self, beta):
        with pytest.raises(ValueError, match="beta"):
            rd.SketchConfig(beta=beta)

    def test_unbounded_probe_budget_rejected(self):
        # C·ln n/β² overflows to infinity
        cfg = rd.SketchConfig(beta=1e-200)
        with pytest.raises(ValueError, match="beta"):
            _num_probes(cfg, 12)
        with pytest.raises(ValueError, match="beta"):
            rd.approx_reff_from_source(rd.grid2d(3), 0, cfg)

    def test_beta_one_accepted(self):
        cfg = rd.SketchConfig(beta=1.0)
        assert _num_probes(cfg, 12) == math.ceil(PROBE_COUNT_CONSTANT * math.log(12))

    @pytest.mark.parametrize("beta", [1.0000001, 2.0, 1e308])
    def test_beta_above_one_rejected(self, beta):
        # the probe budget and the solves' share of the bracket are stated
        # for beta <= 1
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\]"):
            rd.SketchConfig(beta=beta)

    def test_probe_count_is_no_setting(self):
        # k is always min(⌈C·ln n/β²⌉, m)
        with pytest.raises(TypeError):
            rd.SketchConfig(probe_count=5)

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1.5}, {"seed": True}, {"seed": -1},
    ], ids=["seed-float", "seed-bool", "seed-negative"])
    def test_integer_settings_validated(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            rd.SketchConfig(**kwargs)

    def test_numpy_integer_settings_accepted(self, monkeypatch):
        fix_probe_count(monkeypatch, 5)  # the probe path, which reads the seed
        g = rd.grid2d(5)
        a = rd.approx_reff_from_source(g, 0, rd.SketchConfig(seed=np.int64(3)))
        assert np.array_equal(a, rd.approx_reff_from_source(g, 0, rd.SketchConfig(seed=3)))


class TestExactRegime:
    # grid2d(8): k = 203 probes against m = 112 edges
    @pytest.mark.parametrize("backend", ["dense", "sparse", "iterative"])
    def test_row_of_oracle_matrix(self, monkeypatch, backend):
        g = rd.grid2d(8)
        assert _num_probes(rd.SketchConfig(), g.n) >= g.m
        if backend == "sparse":
            monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", g.n - 1)
        method = "iterative" if backend == "iterative" else "auto"
        solver = rd.LaplacianSolver(g, method)
        assert solver.method == backend
        R = exact_reff_matrix(g)
        for u in (0, 27, g.n - 1):
            A = rd.approx_reff_from_source(g, u, solver=solver)
            assert A[u] == 0.0
            assert np.allclose(A, R[u], rtol=1e-12, atol=0.0)

    def test_draws_no_probes(self, monkeypatch):
        def no_probes(*args):
            raise AssertionError("probe system drawn in the exact regime")

        monkeypatch.setattr(sketch, "_probe_system", no_probes)
        monkeypatch.setattr(sketch, "_solve_in_place", no_probes)
        for g in (rd.grid2d(8), rd.barbell(8), rd.complete(5)):
            rd.approx_reff_from_source(g, 0)
        g = rd.grid2d(12)  # k = 242 < m = 264 without the override
        fix_probe_count(monkeypatch, g.m)
        rd.approx_reff_from_source(g, 0)
        fix_probe_count(monkeypatch, g.m - 1)
        with pytest.raises(AssertionError, match="probe system"):
            rd.approx_reff_from_source(g, 0)

    def test_solver_matrix_computed_once_and_read_only(self):
        g = rd.grid2d(8)
        solver = rd.LaplacianSolver(g)
        A = rd.approx_reff_from_source(g, 3, solver=solver)
        R = solver.reff_matrix()
        assert R is solver.reff_matrix()
        assert np.array_equal(A, R[3])
        assert not R.flags.writeable and not A.flags.writeable
        assert rd.LaplacianSolver(rd.build_graph(1, [])).reff_matrix().tolist() == [[0.0]]
        single = rd.approx_reff_from_source(rd.build_graph(1, []), 0)
        assert single.tolist() == [0.0] and not single.flags.writeable


def cholesky_pinv(gram):
    """The Gram's inverse on its range, and its rank, from one pivoted
    Cholesky: the inverse of the block on the accepted pivots, scattered
    into their rows and columns of a zero matrix."""
    k = gram.shape[0]
    factor, piv, rank, _ = lapack.dpstrf(gram)
    lead, _ = lapack.dpotri(factor[:rank, :rank])
    pivots = piv[:rank] - 1
    inv = np.zeros((k, k))
    inv[np.ix_(pivots, pivots)] = np.triu(lead) + np.triu(lead, 1).T
    return inv, rank


def svd_pinv(gram):
    """The Gram's Moore-Penrose pseudo-inverse and its rank from a
    Hermitian SVD, singular values at most k·eps·max counted as zero."""
    U_, sv, Vt = np.linalg.svd(gram, hermitian=True)
    rank = int((sv > sv.max() * gram.shape[0] * np.finfo(float).eps).sum())
    return (Vt[:rank].T / sv[:rank]) @ U_[:, :rank].T, rank


def one_shot_estimates(g, u, cfg, solver, pinv=cholesky_pinv, zeta=None, store32=None):
    """The sketch with its probes drawn as one k×m float64 matrix: with the
    default ``pinv``, ``zeta`` and ``store32``, the formula the streamed
    sketch must reproduce bit for bit. The patch rows are solved to
    ``zeta``, by default the sketch's own accuracy for them. With
    ``store32``, by default on PCG at ζ ≥ 2^-23, the probes are solved to
    ζ − 2^-24 and each row y_i is rounded to float32 times 2^-e_i, e_i the
    binary exponent of max |y_i|, each ``_PROBE_CHUNK`` rows solved in
    their own call; otherwise they are solved to ζ as one batch."""
    m = g.m
    k = sketch._num_probes(cfg, g.n)  # through the module, so fix_probe_count applies
    rhs, gram = one_shot_probe_system(g, k, cfg.seed)
    inv, rank = pinv(gram)
    if zeta is None:
        zeta = sketch._probe_zeta(inv, rank, m, cfg.beta)
    if store32 is None:
        store32 = solver.method == "iterative" and zeta >= 2.0 ** -23
    if store32:
        chunk = sketch._PROBE_CHUNK
        Z = np.concatenate([rd.solve_laplacian_many(solver, rhs[a:a + chunk], zeta - 2.0 ** -24)
                            for a in range(0, k, chunk)])
    else:
        Z = rd.solve_laplacian_many(solver, rhs, zeta)
    diffs = Z - Z[:, [u]]
    if store32:
        e = np.frexp(np.abs(diffs).max(axis=1))[1][:, None]
        diffs = np.ldexp(np.ldexp(diffs, -e).astype(np.float32).astype(np.float64), e)
    # the correction in the sketch's column blocks: the product's last bits
    # can depend on the block width
    step = sketch._CORRECTION_BLOCK
    blocks = [diffs[:, a:a + step] for a in range(0, g.n, step)]
    estimates = (m / rank) * np.concatenate([np.einsum("iv,iv->v", b, inv @ b) for b in blocks])
    estimates[u] = 0.0
    bad = np.flatnonzero((estimates <= 0) & (np.arange(g.n) != u))
    if bad.size:
        rows = np.arange(bad.size)
        pairs = np.zeros((bad.size, g.n))
        pairs[:, u] = 1.0
        pairs[rows, bad] = -1.0
        X = rd.solve_laplacian_many(solver, pairs, zeta)
        estimates[bad] = X[:, u] - X[rows, bad]
    return estimates


class TestStreamedSketch:
    # Between them the cases put k below and above m, leave a last chunk of
    # odd size times odd m, sum the Gram over more than two column blocks
    # with an odd tail, and run the dense, sparse-LU and PCG backends. With
    # k >= m the sketch draws no probes, so those cases check the probe
    # system itself; the others check the whole sketch.
    CASES = [
        pytest.param(lambda: rd.grid2d(12), None, "dense", id="grid12"),
        pytest.param(lambda: rd.barbell(8), 1, "dense", id="barbell8-one-probe"),
        pytest.param(lambda: rd.barbell(8), 7, "dense", id="barbell8-seven-probes"),
        pytest.param(lambda: rd.complete(70), None, "dense", id="complete70-gram-tail"),
        pytest.param(lambda: rd.hypercube(10), None, "iterative", id="hypercube10-pcg"),
        pytest.param(lambda: rd.random_regular(3000, 4, 1), None, "iterative",
                     id="expander3000-pcg"),
        pytest.param(lambda: log_uniform_mesh(46, 1.0, 10.0, seed=7), None, "sparse",
                     id="mesh46-sparse-lu"),
    ]
    PROBE_SYSTEM_CASES = [
        pytest.param(lambda: rd.grid2d(12), 300, id="grid12-k-above-m"),
        pytest.param(lambda: rd.barbell(8), None, id="barbell8-odd-m"),
    ]

    @pytest.mark.parametrize("make, probe_count, backend", CASES)
    def test_matches_one_shot_draw_bit_for_bit(self, monkeypatch, make, probe_count, backend):
        g = make()
        if probe_count is not None:
            fix_probe_count(monkeypatch, probe_count)
        cfg = rd.SketchConfig(seed=3)
        assert sketch._num_probes(cfg, g.n) < g.m
        method = "iterative" if backend == "iterative" else "auto"
        solver = rd.LaplacianSolver(g, method)
        assert solver.method == backend
        A = rd.approx_reff_from_source(g, 0, cfg, solver)
        assert np.array_equal(A, one_shot_estimates(g, 0, cfg, solver))

    @pytest.mark.parametrize("make, probe_count", PROBE_SYSTEM_CASES)
    def test_probe_system_matches_one_shot_draw_bit_for_bit(self, make, probe_count):
        # the packed signs unpack to the generator's one-shot 0/1 draw, down
        # to the last sign of an odd k·m, which takes half a 64-bit word
        g = make()
        k = probe_count or _num_probes(rd.SketchConfig(), g.n)
        assert k >= g.m
        signs, gram = sketch._probe_system(g, k, 3)
        assert signs.dtype == np.uint8 and signs.shape == (k, (g.m + 7) // 8)
        want = np.random.default_rng(3).integers(0, 2, size=(k, g.m))
        assert np.array_equal(np.unpackbits(signs, axis=1, count=g.m), want)
        assert not np.unpackbits(signs, axis=1)[:, g.m:].any()
        assert np.array_equal(gram, one_shot_probe_system(g, k, 3)[1])

    def test_cases_reach_chunk_edges(self):
        # the sketch of grid12 ends on a partial chunk with k < m; its probe
        # system with k = 300 > m ends on another
        k = _num_probes(rd.SketchConfig(), rd.grid2d(12).n)
        assert k % sketch._PROBE_CHUNK != 0 and k < rd.grid2d(12).m < 300
        assert 300 % sketch._PROBE_CHUNK != 0
        # the probe system of barbell8: odd m times an odd last chunk
        g = rd.barbell(8)
        k = _num_probes(rd.SketchConfig(), g.n)
        assert k >= g.m and g.m % 2 == 1 and (k % sketch._PROBE_CHUNK) % 2 == 1
        assert sketch._PROBE_CHUNK % 2 == 0 and sketch._GRAM_BLOCK % 8 == 0
        m = rd.complete(70).m  # more than two Gram blocks and an odd tail
        assert m > 2 * sketch._GRAM_BLOCK and (m % sketch._GRAM_BLOCK) % 2 == 1

    @pytest.mark.parametrize("method", ["iterative", "dense"])
    def test_peak_memory_without_dense_probe_matrix(self, method):
        # one k×n array (9.4 MB here as float64, half that as PCG's float32),
        # the packed probe signs (k·m/8 bytes, 0.3 MB), one row chunk of
        # right-hand sides and the k×k pseudo-inverse: 1.24 k×n float64
        # arrays on PCG, gated at 1.5, and 1.36 on the dense backend, held
        # below 2; the one-shot draw holds k×m float64 and int64 matrices.
        # "auto" takes PCG here.
        g = rd.random_regular(3000, 4, 1)
        k = _num_probes(rd.SketchConfig(), g.n)
        assert k == 390 and rd.LaplacianSolver(g).method == "iterative"
        solver = rd.LaplacianSolver(g, method)
        tracemalloc.start()
        try:
            rd.approx_reff_from_source(g, 0, solver=solver)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (1.5 if method == "iterative" else 2) * 8 * k * g.n

    @pytest.mark.parametrize("e", [-260, 260, 600])
    def test_pcg_estimates_equivariant_under_power_of_two_weights(self, e):
        # weights times 2^e scale every solution by an exact power of two,
        # which the per-row scale of the float32 rows absorbs: the estimates
        # scale by 2^-e bit for bit. An unscaled float32 cast would underflow
        # at 2^600 and overflow at 2^-260.
        g = rd.random_regular(3000, 4, 1)
        h = rd.scale_weights(g, 2.0 ** e)
        A = rd.approx_reff_from_source(g, 0, solver=rd.LaplacianSolver(g, "iterative"))
        B = rd.approx_reff_from_source(h, 0, solver=rd.LaplacianSolver(h, "iterative"))
        assert np.array_equal(2.0 ** e * B, A)

    def test_pcg_rows_stay_float64_below_twice_the_rounding(self, monkeypatch):
        # at ζ < 2^-23 a float32 row's rounding would take more than half of
        # ζ: the probe solves take all of ζ and the rows stay float64, as the
        # one-shot formula without rounding has them
        g = rd.random_regular(3000, 4, 1)
        fix_probe_count(monkeypatch, 50)
        cfg = rd.SketchConfig(beta=1e-4)
        solver = rd.LaplacianSolver(g, "iterative")
        calls = record_solves(monkeypatch)
        A = rd.approx_reff_from_source(g, 0, cfg, solver)
        inv, rank = cholesky_pinv(one_shot_probe_system(g, 50, 0)[1])
        zeta = sketch._probe_zeta(inv, rank, g.m, cfg.beta)
        assert linalg.ZETA_FLOOR < zeta < 2.0 ** -23
        assert TestProbeAccuracy.recorded_zetas(calls) == [zeta]
        assert np.array_equal(A, one_shot_estimates(g, 0, cfg, solver, store32=False))


class TestProbeWorkers:
    """PCG's float32 probe chunks run on up to ``_PROBE_THREADS`` threads,
    and the sketch's bits do not depend on how many."""

    @pytest.fixture
    def pooled(self, monkeypatch):
        """Pools the probe chunks at any size; returns a setter for the
        worker count."""
        monkeypatch.setattr(sketch, "_POOL_MIN_NONZEROS", 0)
        return lambda workers: monkeypatch.setattr(sketch, "_probe_workers", lambda: workers)

    @pytest.mark.parametrize("make", [lambda: rd.random_regular(3000, 4, 1),
                                      lambda: rd.hypercube(10),
                                      lambda: skewed(rd.hypercube(7), 1e2)],
                             ids=["expander3000", "hypercube10", "skewed_hypercube7"])
    def test_bytes_independent_of_worker_count(self, monkeypatch, pooled, make):
        # three workers on at most two CPUs, switching threads often: the
        # bytes of one worker, and those of the one-shot formula. On the
        # skewed hypercube a chunk's bits depend on the energy ratio its
        # first row starts from, so chunks that carried the ratio of the
        # chunk their thread solved before would change them.
        g = make()
        cfg = rd.SketchConfig(seed=2)
        solver = rd.LaplacianSolver(g, "iterative")
        threads = set()
        record_solves(monkeypatch, before=lambda start: threads.add(threading.get_ident()))
        out = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3):
                pooled(workers)
                threads.clear()
                out[workers] = rd.approx_reff_from_source(g, 0, cfg, solver).tobytes()
                assert (len(threads) > 1) == (workers > 1)
        finally:
            sys.setswitchinterval(interval)
        assert out[1] == out[2] == out[3]
        assert out[1] == one_shot_estimates(g, 0, cfg, solver).tobytes()

    def test_pooled_failure_raises_the_sequential_error(self, monkeypatch, pooled):
        # every probe chunk from the second on, told by its start row, may
        # take one PCG iteration and fails, while the first chunk, running
        # beside them, keeps the module's budget; the error is that of the
        # lowest failing chunk, as in the sequential loop, and it is raised
        # once the workers are gone
        g = rd.random_regular(3000, 4, 1)
        main = threading.get_ident()
        failing_threads = set()
        local = threading.local()
        real = linalg._pcg
        # _pcg reading a budget of 1 from its own globals: setting the
        # module's budget would starve the chunks already running too
        starved = types.FunctionType(real.__code__, {**vars(linalg), "PCG_MAX_ITERATIONS": 1})

        def starve(start):
            local.starved = start is not None and start >= sketch._PROBE_CHUNK
            if local.starved:
                failing_threads.add(threading.get_ident())

        record_solves(monkeypatch, before=starve)
        monkeypatch.setattr(linalg, "_pcg",
                            lambda *args: (starved if local.starved else real)(*args))
        errors = {}
        for workers in (1, 2):
            pooled(workers)
            failing_threads.clear()
            solver = rd.LaplacianSolver(g, "iterative")
            before = threading.active_count()
            with pytest.raises(rd.ConvergenceError) as info:
                rd.approx_reff_from_source(g, 0, solver=solver)
            assert threading.active_count() == before
            assert (main not in failing_threads) == (workers > 1)
            errors[workers] = str(info.value), info.value.residual, info.value.attained_zeta
        assert errors[1] == errors[2]
        assert "within 1 iterations" in errors[1][0]

    def test_spanning_tree_built_once_per_solver(self, monkeypatch, pooled):
        built = []
        real = linalg._spanning_tree
        monkeypatch.setattr(linalg, "_spanning_tree", lambda g: built.append(g.n) or real(g))
        pooled(2)
        g = rd.hypercube(10)
        solver = rd.LaplacianSolver(g, "iterative")
        for _ in range(2):
            rd.approx_reff_from_source(g, 0, solver=solver)
        assert built == [g.n]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_reduced_operator_built_once_for_any_worker_count(self, monkeypatch, pooled,
                                                              workers):
        # PCG's reduced operator is built in the calling thread before the
        # pool dispatches, once per solver, so no two workers race to build it
        built = []
        real = linalg._independent_set
        monkeypatch.setattr(linalg, "_independent_set",
                            lambda g: built.append(threading.get_ident()) or real(g))
        pooled(workers)
        g = rd.hypercube(10)
        solver = rd.LaplacianSolver(g, "iterative")
        for _ in range(2):
            rd.approx_reff_from_source(g, 0, solver=solver)
        assert built == [threading.get_ident()]

    def test_small_graph_solves_in_calling_thread(self, monkeypatch):
        # the pool is chosen by the Laplacian's nonzeros, n + 2m
        g = rd.random_regular(3000, 4, 1)
        assert g.n + 2 * g.m == 15_000 < sketch._POOL_MIN_NONZEROS
        monkeypatch.setattr(sketch, "_probe_workers", lambda: 2)
        threads = set()
        record_solves(monkeypatch, before=lambda start: threads.add(threading.get_ident()))
        rd.approx_reff_from_source(g, 0, solver=rd.LaplacianSolver(g, "iterative"))
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("make, nonzeros, joins_pool", [
        (lambda: rd.random_regular(6000, 4, 1), 30_000, True),
        (lambda: rd.random_regular(5000, 4, 1), 25_000, False),
        (lambda: rd.hypercube(11), 24_576, False),
        (lambda: rd.grid2d(60), 17_760, False),
    ], ids=["rr6000", "rr5000", "hypercube11", "grid60"])
    def test_pool_chosen_by_laplacian_nonzeros(self, monkeypatch, make, nonzeros, joins_pool):
        # two probe chunks and two workers: the chunks leave the calling
        # thread exactly when n + 2m reaches the threshold
        g = make()
        assert g.n + 2 * g.m == nonzeros
        fix_probe_count(monkeypatch, 2 * sketch._PROBE_CHUNK)
        monkeypatch.setattr(sketch, "_probe_workers", lambda: 2)
        threads = set()
        record_solves(monkeypatch, before=lambda start: threads.add(threading.get_ident()))
        rd.approx_reff_from_source(g, 0, solver=rd.LaplacianSolver(g, "iterative"))
        assert (threads != {threading.get_ident()}) == joins_pool

    def test_hypercube12_pooled_bytes_equal_one_worker_count(self, monkeypatch):
        # 4096 vertices but 53,248 nonzeros, above the threshold: two
        # workers solve chunks off the calling thread, with the bytes of one
        g = rd.hypercube(12)
        solver = rd.LaplacianSolver(g, "iterative")
        threads = set()
        record_solves(monkeypatch, before=lambda start: threads.add(threading.get_ident()))
        out = {}
        for workers in (2, 1):
            monkeypatch.setattr(sketch, "_probe_workers", lambda: workers)
            threads.clear()
            out[workers] = rd.approx_reff_from_source(g, 0, solver=solver).tobytes()
            assert (threads - {threading.get_ident()} != set()) == (workers > 1)
        assert out[1] == out[2]


class TestGramInverse:
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_rank_deficient_gram_matches_svd_pseudo_inverse(self, monkeypatch, seed):
        # two probes on the three edges of a 4-vertex path that agree up to
        # sign: a Gram of rank 1. Seed 1 also leaves vanished estimates to
        # the patch solves.
        g = path_graph(4)
        fix_probe_count(monkeypatch, 2)
        cfg = rd.SketchConfig(seed=seed)
        _, gram = sketch._probe_system(g, 2, seed)
        assert cholesky_pinv(gram)[1] == svd_pinv(gram)[1] == 1
        solver = rd.LaplacianSolver(g)
        A = rd.approx_reff_from_source(g, 0, cfg, solver)
        want = one_shot_estimates(g, 0, cfg, solver, pinv=svd_pinv)
        assert np.allclose(A, want, rtol=1e-12, atol=0.0)

    def test_no_eigensolver_on_probe_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for g, method, backend in ((rd.grid2d(12), "auto", "dense"),
                                   (rd.hypercube(10), "iterative", "iterative")):
            assert _num_probes(rd.SketchConfig(), g.n) < g.m
            solver = rd.LaplacianSolver(g, method)
            assert solver.method == backend
            assert (rd.approx_reff_from_source(g, 0, solver=solver)[1:] > 0).all()
        g = rd.grid2d(24)
        config = rd.DecompositionConfig(delta=8.0, n_original=g.n,
                                        cut_budget=g.total_weight / 8,
                                        resistance_target=2.0)
        _, report = rd.partition_with_config(g, config)
        assert report.num_sparse_cuts == 85


class TestProbeAccuracy:
    """The probe solves run at the accuracy the e^beta bracket needs."""

    @staticmethod
    def recorded_zetas(calls):
        return [zeta for _, _, zeta in by_start_row(calls)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solve_error_within_share_of_bracket(self, seed):
        # |sqrt(A) − sqrt(A_floor)| ≤ γ·β·sqrt(Reff), A_floor the same probes
        # solved at the floor accuracy
        g = rd.random_regular(600, 4, seed)
        cfg = rd.SketchConfig(seed=seed)
        assert _num_probes(cfg, g.n) < g.m
        solver = rd.LaplacianSolver(g, "iterative")
        A = rd.approx_reff_from_source(g, 0, cfg, solver)
        floor = one_shot_estimates(g, 0, cfg, solver, zeta=linalg.ZETA_FLOOR)
        R = exact_reff_matrix(g)[0]
        drift = np.abs(np.sqrt(A) - np.sqrt(floor))
        assert (drift <= sketch.SOLVE_ERROR_SHARE * cfg.beta * np.sqrt(R)).all()

    def test_requested_zeta_matches_formula(self, monkeypatch):
        g = rd.random_regular(600, 4, 0)
        cfg = rd.SketchConfig(seed=5)
        k = _num_probes(cfg, g.n)
        calls = record_solves(monkeypatch)
        solver = rd.LaplacianSolver(g, "iterative")
        rd.approx_reff_from_source(g, 0, cfg, solver)
        inv, rank = cholesky_pinv(one_shot_probe_system(g, k, 5)[1])
        rho = (g.m / rank) * np.abs(inv).sum(axis=1).max()
        want = sketch.SOLVE_ERROR_SHARE * cfg.beta / math.sqrt(rho * k * g.m)
        assert 2.0 ** -23 <= want < linalg.ZETA_CAP
        # calls that tile the k probe rows, none across a probe chunk's end,
        # each at ζ less the float32 rows' rounding
        calls = by_start_row(calls)
        assert math.ceil(k / sketch._PROBE_CHUNK) > 1
        assert [start for start, _, _ in calls] == list(
            np.cumsum([0] + [len(B) for _, B, _ in calls[:-1]]))
        assert sum(len(B) for _, B, _ in calls) == k
        assert all(start // sketch._PROBE_CHUNK == (start + len(B) - 1) // sketch._PROBE_CHUNK
                   for start, B, _ in calls)
        want_zeta = pytest.approx(want - 2.0 ** -24, rel=1e-12)
        assert self.recorded_zetas(calls) == [want_zeta] * len(calls)

    # ζ ≤ γ·β ≤ γ never reaches ZETA_CAP at the β SketchConfig admits
    @pytest.mark.parametrize("beta, want", [(1e-30, linalg.ZETA_FLOOR)], ids=["floor"])
    def test_requested_zeta_clamped(self, monkeypatch, beta, want):
        g = rd.grid2d(8)
        calls = record_solves(monkeypatch)
        fix_probe_count(monkeypatch, 20)
        rd.approx_reff_from_source(g, 0, rd.SketchConfig(beta=beta))
        assert self.recorded_zetas(calls)[0] == want

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_direct_backends_ignore_zeta(self, monkeypatch, backend):
        g = rd.grid2d(12)  # k = 242 < m = 264
        if backend == "sparse":
            monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", g.n - 1)
        solver = rd.LaplacianSolver(g)
        assert solver.method == backend
        cfg = rd.SketchConfig(seed=4)
        A = rd.approx_reff_from_source(g, 0, cfg, solver)
        for zeta in (linalg.ZETA_FLOOR, 1e-8, 1e-3, linalg.ZETA_CAP):
            monkeypatch.setattr(sketch, "_probe_zeta", lambda *args: zeta)
            assert np.array_equal(rd.approx_reff_from_source(g, 0, cfg, solver), A)


class TestFurthestPair:
    def test_single_edge(self):
        u, v, est = rd.furthest_pair(rd.build_graph(2, [(0, 1, 1.0)]))
        assert (u, v) == (0, 1)
        assert est == pytest.approx(1.0, rel=1e-9)

    def test_path5_guarantee(self):
        g = path_graph(5)  # resistance diameter 4, attained by the endpoints
        u, v, est = rd.furthest_pair(g)
        assert exact_reff(g, u, v) >= 4.0 / 3.0
        assert (u, v) == (0, 4)

    def test_factor_three_on_corpus(self, corpus100):
        for g in corpus100:
            u, v, est = rd.furthest_pair(g)
            R = exact_reff_matrix(g)
            assert R[u, v] >= R.max() / 3.0 - 1e-12
            # the estimate itself honors the multiplicative bracket
            assert math.exp(-BETA) * R[u, v] - 1e-12 <= est <= math.exp(BETA) * R[u, v] + 1e-12

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            rd.furthest_pair(rd.build_graph(1, []))

    def test_exact_tie_goes_to_smallest_id(self):
        # on the 11-cycle vertices 5 and 6 are both at resistance 30/11 from
        # 0; the exact estimates differ in their last bits
        n = 11
        g = rd.build_graph(n, [(min(i, (i + 1) % n), max(i, (i + 1) % n), 1.0)
                               for i in range(n)])
        u, v, est = rd.furthest_pair(g)
        assert (u, v) == (0, 5)
        assert est == pytest.approx(30 / 11, rel=1e-12)

    def test_deterministic(self):
        g = rd.grid2d(6)
        cfg = rd.SketchConfig(seed=9)
        assert rd.furthest_pair(g, cfg) == rd.furthest_pair(g, cfg)

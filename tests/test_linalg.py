import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

import resdecomp as rd
from resdecomp import linalg
from resdecomp.linalg import ZETA_CAP, ZETA_FLOOR

from conftest import (exact_reff, exact_reff_matrix, greedy_independent_set, log_uniform_mesh,
                      one_shot_probe_system, path_graph, random_connected_graph, reduced_cg,
                      skewed)


# iterations within which every PCG solve of these tests stops
PCG_CAP = 2000


def dense_pinv_solution(g, b):
    """Independent oracle: pseudo-inverse applied to b."""
    L = rd.assemble_laplacian(g).toarray()
    return np.linalg.pinv(L) @ b


def _solve(g, b, zeta=1e-8, method="auto"):
    """One right-hand side as a one-row batch on a fresh solver for ``g``."""
    return rd.solve_laplacian_many(rd.LaplacianSolver(g, method), np.asarray(b)[None], zeta)[0]


def energy_norm(g, x):
    # xᵀLx can round below zero when x is at rounding level
    L = rd.assemble_laplacian(g)
    return float(np.sqrt(max(x @ (L @ x), 0.0)))


class TestAssembleLaplacian:
    def test_single_edge(self):
        g = rd.build_graph(2, [(0, 1, 2.0)])
        L = rd.assemble_laplacian(g).toarray()
        assert np.array_equal(L, [[2.0, -2.0], [-2.0, 2.0]])

    def test_unit_path(self):
        L = rd.assemble_laplacian(path_graph(3)).toarray()
        assert np.array_equal(np.diag(L), [1.0, 2.0, 1.0])
        assert L[0, 1] == L[1, 2] == -1.0
        assert L[0, 2] == 0.0

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = random_connected_graph(rng)
            L = rd.assemble_laplacian(g).toarray()
            assert np.allclose(L.sum(axis=1), 0, atol=1e-12)
            assert np.allclose(L, L.T)
            off = L - np.diag(np.diag(L))
            assert (off <= 0).all() and (np.diag(L) >= 0).all()


class TestGroundedCholesky:
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_grounded_matrix_bit_identical_to_assembled(self, monkeypatch, where):
        # the dense backend writes the grounded Laplacian from the edge
        # arrays; it must equal the assembled L with the ground's row and
        # column removed, bit for bit, on weights spanning e^-5 to e^5
        g = skewed(rd.grid2d(7), np.exp(5.0), seed=4)
        ground = {"first": 0, "middle": g.n // 2, "last": g.n - 1}[where]
        written = []
        real = linalg.sla.cho_factor

        def recording(a, **kwargs):
            written.append((a, a.copy(order="C")))
            return real(a, **kwargs)

        monkeypatch.setattr(linalg.sla, "cho_factor", recording)
        factor = linalg._grounded_cholesky(g, ground)
        (array, A), = written
        keep = np.arange(g.n) != ground
        expected = rd.assemble_laplacian(g).toarray()[np.ix_(keep, keep)]
        assert A.tobytes() == expected.tobytes()
        # factored in place: the factor is the one array that was written
        assert factor[0] is array

    def test_dense_solver_never_assembles(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a dense solver built a sparse matrix")

        g = rd.grid2d(6)
        monkeypatch.setattr(linalg, "assemble_laplacian", fail)
        monkeypatch.setattr(linalg.sp.csr_matrix, "toarray", fail)
        solver = rd.LaplacianSolver(g)
        assert solver.method == "dense"
        rd.solve_laplacian_many(solver, _unit_pair_rhs(g.n, 0, g.n - 1)[None], 1e-8)
        solver.reff_matrix()
        exact_reff(g, 3, 17)
        exact_reff_matrix(g)
        monkeypatch.undo()
        # the public attribute is still there, built on first use
        assert (solver.laplacian != rd.assemble_laplacian(g)).nnz == 0

    def test_iterative_reff_matrix_bit_identical_to_oracle(self):
        g = skewed(rd.grid2d(6), np.exp(5.0), seed=2)
        solver = rd.LaplacianSolver(g, "iterative")
        assert solver.method == "iterative"
        assert solver.reff_matrix().tobytes() == exact_reff_matrix(g).tobytes()


class TestSolveLaplacian:
    def test_zero_rhs_gives_zero(self):
        g = path_graph(3)
        x = _solve(g, np.zeros(3))
        assert np.array_equal(x, np.zeros(3))

    def test_single_edge_unit_drop(self):
        g = rd.build_graph(2, [(0, 1, 1.0)])
        x = _solve(g, np.array([1.0, -1.0]))
        assert x[0] - x[1] == pytest.approx(1.0, abs=1e-10)

    def test_path_series_resistors(self):
        g = path_graph(3)
        x = _solve(g, np.array([1.0, 0.0, -1.0]))
        assert x[0] - x[2] == pytest.approx(2.0, abs=1e-10)

    def test_result_orthogonal_to_ones(self):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng)
        b = rng.normal(size=g.n)
        b -= b.mean()
        x = _solve(g, b)
        assert abs(x.sum()) < 1e-8 * max(1.0, np.abs(x).max())

    def test_disconnected_rejected(self):
        g = rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(rd.DisconnectedGraphError):
            _solve(g, np.array([1.0, -1.0, 0.0, 0.0]))

    def test_nonzero_sum_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="sum to zero"):
            _solve(g, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rows_rejected(self, monkeypatch, method, bad):
        # NaN passes the zero-sum test (abs(nan) > tol is false), and ±inf
        # sums to NaN; both must fail before any solve. The bad row lies in
        # the second check chunk.
        g = rd.grid2d(5)
        solver = rd.LaplacianSolver(g, method)
        assert solver.method == method
        B = np.zeros((linalg._ROW_CHUNK + 6, g.n))
        B[:, 0], B[:, -1] = 1.0, -1.0
        B[-2, 3] = bad
        B[-2, 4] = -bad
        monkeypatch.setattr(linalg, "_pcg", None)
        monkeypatch.setattr(linalg.sla, "cho_solve", None)
        with pytest.raises(ValueError, match="finite"):
            rd.solve_laplacian_many(solver, B, 1e-8)

    def test_iteration_budget_exhaustion_carries_residual(self, monkeypatch):
        g = rd.grid2d(6)
        b = _unit_pair_rhs(g.n, 0, g.n - 1)
        monkeypatch.setattr(linalg, "PCG_MAX_ITERATIONS", 2)
        zeta = 1e-10
        with pytest.raises(rd.ConvergenceError) as info:
            _solve(g, b, zeta, "iterative")
        err = info.value
        # replay two reduced-system CG steps; the attained zeta is
        # sqrt(tree energy of the residual * 2 max deg) / |b|
        x, r = next(itertools.islice(reduced_cg(g, b), 2, None))
        assert err.residual == pytest.approx(np.linalg.norm(r), rel=1e-12)
        lam_max = 2.0 * g.degrees.max()
        expected = np.sqrt(tree_flow_energy(g, r) * lam_max) / np.linalg.norm(b)
        assert err.attained_zeta == pytest.approx(expected, rel=1e-12)
        assert err.attained_zeta > zeta
        # and it certifies the error of the iterate it stopped at
        exact = dense_pinv_solution(g, b)
        assert energy_norm(g, x - exact) <= err.attained_zeta * energy_norm(g, exact)
        assert f"attained zeta {err.attained_zeta:.3e}" in str(err)

    def test_energy_norm_contract_iterative(self, corpus):
        # the PCG stopping rule is a sufficient condition; check the real thing
        skew = [skewed(rd.grid2d(6), 1e3), skewed(rd.hypercube(5), 1e3),
                skewed(rd.random_regular(60, 4, 0), 1e2)]
        for g in corpus[:20] + skew:
            b = _unit_pair_rhs(g.n, 0, g.n - 1)
            exact = dense_pinv_solution(g, b)
            for zeta in (1e-2, 1e-6):
                x = _solve(g, b, zeta, "iterative")
                assert energy_norm(g, x - exact) <= zeta * energy_norm(g, exact) + 1e-13

    def test_kernel_is_reduced_system_cg(self, monkeypatch, corpus):
        # the kernel is CG on the Schur complement of the greedy independent
        # set in D^{-1/2} L D^{-1/2}: a one-row solve stops within one
        # iteration of the first textbook iterate whose residual the tree
        # certifies
        skew = [skewed(rd.grid2d(6), 1e3), skewed(rd.hypercube(5), 1e3),
                skewed(rd.random_regular(60, 4, 0), 1e2)]
        for g in corpus[:20] + skew:
            b = _unit_pair_rhs(g.n, 0, g.n - 1)
            exact = dense_pinv_solution(g, b)
            solver = rd.LaplacianSolver(g, "iterative")
            for zeta in (1e-2, 1e-6):
                goal = zeta ** 2 * (b @ b) / (2.0 * g.degrees.max())
                steps = itertools.islice(reduced_cg(g, b), PCG_CAP)
                replay, x_replay = next((step, x) for step, (x, r) in enumerate(steps)
                                        if linalg._tree_energy(solver, r) <= goal)
                for budget in range(PCG_CAP):
                    monkeypatch.setattr(linalg, "PCG_MAX_ITERATIONS", budget)
                    try:
                        x = rd.solve_laplacian_many(solver, b[None], zeta)[0]
                        break
                    except rd.ConvergenceError:
                        pass
                else:
                    pytest.fail(f"no budget below {PCG_CAP} certifies zeta {zeta}")
                assert abs(budget - replay) <= 1
                for y in (x, x_replay - x_replay.mean()):
                    assert energy_norm(g, y - exact) <= zeta * energy_norm(g, exact) + 1e-13

    @pytest.mark.parametrize("g", [skewed(rd.hypercube(6), 1e2),
                                   skewed(rd.random_regular(100, 4, 2), 1e3)],
                             ids=["hypercube6-skew1e2", "expander100-skew1e3"])
    def test_pcg_stops_at_tree_certificate(self, monkeypatch, g):
        zeta = 1e-6
        b = _unit_pair_rhs(g.n, 0, g.n - 1)
        goal = zeta ** 2 * (b @ b) / (2.0 * g.degrees.max())
        # the smallest iteration budget that succeeds: its iterate is
        # certified, and the one before it is not
        for budget in range(1, 1000):
            monkeypatch.setattr(linalg, "PCG_MAX_ITERATIONS", budget)
            try:
                x = _solve(g, b, zeta, "iterative")
                break
            except rd.ConvergenceError as err:
                before = err
        assert before.attained_zeta > zeta
        r = b - rd.assemble_laplacian(g) @ x
        assert tree_flow_energy(g, r) <= goal * (1 + 1e-6)

    def test_batch_contract_at_scale(self):
        # probe rows of a skewed expander above DENSE_SOLVE_LIMIT as one batch:
        # every row after the first checks its residual at the ratio carried
        # from the row before, and the scaling by D^{-1/2} rounds under skew
        g = skewed(rd.random_regular(3000, 4, 0), 1e2)
        assert g.n > linalg.DENSE_SOLVE_LIMIT
        B, _ = one_shot_probe_system(g, 12, 0)
        exact = rd.solve_laplacian_many(rd.LaplacianSolver(g, "dense"), B, 1e-8)
        L = rd.assemble_laplacian(g)
        solver = rd.LaplacianSolver(g, "iterative")
        for zeta in (1e-4, 1e-8):
            X = rd.solve_laplacian_many(solver, B, zeta)
            for x, x_ref in zip(X, exact):
                e = x - x_ref
                assert np.sqrt(e @ (L @ e)) <= zeta * np.sqrt(x_ref @ (L @ x_ref))
            assert X[0].tobytes() == rd.solve_laplacian_many(solver, B[:1], zeta)[0].tobytes()

    def test_energy_norm_contract_dense(self, corpus):
        for g in corpus[:20]:
            b = _unit_pair_rhs(g.n, 0, 1)
            exact = dense_pinv_solution(g, b)
            x = _solve(g, b, 1e-8)
            assert energy_norm(g, x - exact) <= 1e-8 * energy_norm(g, exact) + 1e-13

    def test_deterministic(self):
        g = rd.grid2d(5)
        b = _unit_pair_rhs(g.n, 0, 24)
        x1 = _solve(g, b, 1e-6, "iterative")
        x2 = _solve(g, b, 1e-6, "iterative")
        assert np.array_equal(x1, x2)

    def test_batch_matches_single(self):
        g = rd.grid2d(4)
        solver = rd.LaplacianSolver(g)
        B = np.stack([_unit_pair_rhs(g.n, 0, 5), _unit_pair_rhs(g.n, 3, 12)])
        X = rd.solve_laplacian_many(solver, B, 1e-8)
        for row, b in zip(X, B):
            single = rd.solve_laplacian_many(solver, b[None], 1e-8)[0]
            assert np.allclose(row, single, atol=1e-12)

    def test_vanishing_residual_certified_in_batch(self):
        # on one edge a single CG step leaves a residual of exactly zero: a
        # certified stop, and the next row of the batch still solves
        g = rd.build_graph(2, [(0, 1, 4.0)])
        solver = rd.LaplacianSolver(g, "iterative")
        X = rd.solve_laplacian_many(solver, np.array([[1.0, -1.0], [-2.0, 2.0]]), 1e-8)
        assert np.array_equal(X, [[0.125, -0.125], [-0.25, 0.25]])

    def test_batch_iterative_branch(self):
        g = rd.grid2d(6)
        solver = rd.LaplacianSolver(g, "iterative")
        B = np.stack([_unit_pair_rhs(g.n, 0, 35), np.zeros(g.n)])
        X = rd.solve_laplacian_many(solver, B, 1e-6)
        assert np.array_equal(X[1], np.zeros(g.n))
        assert np.array_equal(X[0], rd.solve_laplacian_many(solver, B[:1], 1e-6)[0])


def _cycle(n):
    return rd.build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def _star(leaves, centre_last):
    centre = leaves if centre_last else 0
    return rd.build_graph(leaves + 1, [(centre, v, 1.0) for v in range(leaves + 1)
                                       if v != centre])


BIPARTITE = {"hypercube5": rd.hypercube(5), "grid6": rd.grid2d(6), "cycle12": _cycle(12),
             "path9": path_graph(9)}
NON_BIPARTITE = {"cycle11": _cycle(11), "complete5": rd.complete(5),
                 "expander60": rd.random_regular(60, 4, 0),
                 "star_centre_first": _star(9, False), "star_centre_last": _star(9, True)}


class TestReducedOperator:
    """PCG runs on the Schur complement of a greedy independent set."""

    @staticmethod
    def _check_contract(g):
        rng = np.random.default_rng(5)
        B = np.vstack([_unit_pair_rhs(g.n, 0, g.n - 1), rng.normal(size=(3, g.n))])
        B -= B.mean(axis=1, keepdims=True)
        exact = [dense_pinv_solution(g, b) for b in B]
        solver = rd.LaplacianSolver(g, "iterative")
        for zeta in (1e-2, 1e-6, 1e-10):
            X = rd.solve_laplacian_many(solver, B, zeta)
            for x, x_ref in zip(X, exact):
                assert energy_norm(g, x - x_ref) <= zeta * energy_norm(g, x_ref) + 1e-13

    @pytest.mark.parametrize("spread", [1.0, 1e3], ids=["unit", "skew1e3"])
    @pytest.mark.parametrize("name", BIPARTITE)
    def test_contract_on_bipartite_graphs(self, name, spread):
        g = skewed(BIPARTITE[name], spread) if spread > 1 else BIPARTITE[name]
        # the greedy set is one colour class: V₁ holds half the vertices
        assert rd.LaplacianSolver(g, "iterative")._reduced[1].shape[0] == g.n // 2
        self._check_contract(g)

    @pytest.mark.parametrize("spread", [1.0, 1e3], ids=["unit", "skew1e3"])
    @pytest.mark.parametrize("name", NON_BIPARTITE)
    def test_contract_on_non_bipartite_graphs(self, name, spread):
        g = NON_BIPARTITE[name]
        self._check_contract(skewed(g, spread) if spread > 1 else g)

    @pytest.mark.parametrize("name", [*BIPARTITE, *NON_BIPARTITE])
    def test_independent_set_is_maximal_and_repeatable(self, name):
        g = {**BIPARTITE, **NON_BIPARTITE}[name]
        taken = linalg._independent_set(g)
        assert np.array_equal(np.flatnonzero(taken), greedy_independent_set(g))
        assert not (taken[g.edge_u] & taken[g.edge_v]).any()
        # maximal: every vertex left out has a neighbour in the set
        assert all(taken[g.neighbors(v)[0]].any() for v in np.flatnonzero(~taken))
        assert np.array_equal(taken, linalg._independent_set(g))
        first = rd.LaplacianSolver(g, "iterative")._reduced[0]
        assert np.array_equal(first, rd.LaplacianSolver(g, "iterative")._reduced[0])

    def test_blocks_are_the_permuted_scaled_laplacian(self):
        g = skewed(rd.random_regular(60, 4, 0), 1e3)
        order, upper, lower, sqrt_deg, inv_sqrt = rd.LaplacianSolver(g, "iterative")._reduced
        n1 = upper.shape[0]
        assert np.array_equal(sqrt_deg, np.sqrt(g.degrees[order]))
        assert np.array_equal(order[:n1], np.flatnonzero(~linalg._independent_set(g)))
        L = rd.assemble_laplacian(g).toarray()[np.ix_(order, order)]
        scaled = L / np.sqrt(np.outer(g.degrees[order], g.degrees[order]))
        np.testing.assert_allclose(upper.toarray(), scaled[:n1] - np.eye(n1, g.n), rtol=1e-14)
        np.testing.assert_allclose(lower.toarray(), -scaled[n1:, :n1], rtol=1e-14)
        assert not scaled[n1:, n1:][~np.eye(g.n - n1, dtype=bool)].any()

    def test_iterative_solver_never_assembles(self, monkeypatch):
        # the reduced operator comes from the edge arrays, not from L
        def fail(*args, **kwargs):
            raise AssertionError("an iterative solver assembled the Laplacian")

        monkeypatch.setattr(linalg, "assemble_laplacian", fail)
        g = rd.grid2d(6)
        x = _solve(g, _unit_pair_rhs(g.n, 0, g.n - 1), 1e-8, "iterative")
        monkeypatch.undo()
        exact = dense_pinv_solution(g, _unit_pair_rhs(g.n, 0, g.n - 1))
        assert energy_norm(g, x - exact) <= 1e-8 * energy_norm(g, exact)

    def test_csr_matvec_equals_matmul(self):
        # pins the private scipy kernel the loop calls: @ runs the same one
        g = skewed(rd.grid2d(5), 1e3)
        _, upper, lower, _, _ = rd.LaplacianSolver(g, "iterative")._reduced
        v = np.random.default_rng(1).normal(size=g.n)
        for A in (upper, lower):
            out = np.zeros(A.shape[0])
            linalg.csr_matvec(*A.shape, A.indptr, A.indices, A.data, v[:A.shape[1]], out)
            assert out.tobytes() == (A @ v[:A.shape[1]]).tobytes()


class TestBlasThreads:
    def test_pcg_bits_independent_of_thread_count(self):
        # above 10^4 entries OpenBLAS splits a dot product across its
        # threads; the kernel sums its reductions in fixed blocks, so a
        # solve on 12000 vertices keeps its bits at 1 and 2 threads
        script = (
            "import numpy as np, resdecomp as rd\n"
            "g = rd.random_regular(12000, 4, 1)\n"
            "solver = rd.LaplacianSolver(g, 'iterative')\n"
            "x = rd.st_potential(solver, 0, 11999, 1e-8)\n"
            "B = np.random.default_rng(3).normal(size=(2, g.n))\n"
            "B -= B.mean(axis=1, keepdims=True)\n"
            "for v in (x, *rd.solve_laplacian_many(solver, B, 1e-6)):\n"
            "    print(' '.join(map(float.hex, v.tolist())))\n")
        src = os.path.dirname(os.path.dirname(rd.__file__))
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                      capture_output=True, text=True, timeout=300).stdout)
        assert out[0].count("\n") == 3
        assert out[0] == out[1]


class TestLaplacianSolver:
    def test_auto_method_by_size(self, monkeypatch):
        grid, cube = rd.grid2d(4), rd.hypercube(8)
        assert rd.LaplacianSolver(grid).method == "dense"
        monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", grid.n - 1)
        # above the limit the fill probe decides: a grid factors, a hypercube iterates
        assert rd.LaplacianSolver(grid).method == "sparse"
        assert rd.LaplacianSolver(cube).method == "iterative"
        # explicit methods are taken as given
        assert rd.LaplacianSolver(grid, "dense").method == "dense"
        assert rd.LaplacianSolver(grid, "iterative").method == "iterative"

    @pytest.mark.parametrize("method", ["bogus", None, "sparse"])
    def test_unknown_method_rejected_before_factoring(self, monkeypatch, method):
        # "sparse" is a backend "auto" may pick, not a method to ask for
        def fail(*args, **kwargs):
            raise AssertionError("factored before checking the method")

        monkeypatch.setattr(linalg, "_grounded_cholesky", fail)
        monkeypatch.setattr(linalg.spla, "splu", fail)
        monkeypatch.setattr(linalg, "_rcm_envelope", fail)
        with pytest.raises(ValueError, match="unknown method"):
            rd.LaplacianSolver(rd.grid2d(4), method)

    def test_fill_probe_at_real_limit(self):
        cases = [(rd.grid2d(46), "sparse"), (rd.hypercube(12), "iterative"),
                 (rd.random_regular(3000, 4, 0), "iterative")]
        for g, method in cases:
            assert g.n > linalg.DENSE_SOLVE_LIMIT
            assert rd.LaplacianSolver(g).method == method

    def test_sparse_backend_contract_on_weighted_grid(self, monkeypatch):
        g = log_uniform_mesh(20, 1.0, 10.0, seed=5)
        monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", 100)
        solver = rd.LaplacianSolver(g)
        assert solver.method == "sparse"
        rng = np.random.default_rng(6)
        # more rows than one solve chunk, and a zero row
        B = rng.normal(size=(linalg._ROW_CHUNK + 7, g.n))
        B -= B.mean(axis=1, keepdims=True)
        B[3] = 0.0
        zeta = 1e-8
        X = rd.solve_laplacian_many(solver, B, zeta)
        exact = rd.solve_laplacian_many(rd.LaplacianSolver(g, "dense"), B, zeta)
        assert np.array_equal(X[3], np.zeros(g.n))
        for x, x_ref in zip(X, exact):
            assert abs(x.mean()) <= 1e-14 * max(1.0, np.abs(x).max())
            assert energy_norm(g, x - x_ref) <= zeta * energy_norm(g, x_ref)

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_direct_backends_solve_every_row_chunk(self, monkeypatch, method):
        # two full row chunks and a partial one against the pseudo-inverse
        g = log_uniform_mesh(8, 1.0, 10.0, seed=3)
        monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", 0 if method == "sparse" else g.n)
        solver = rd.LaplacianSolver(g)
        assert solver.method == method
        B = np.random.default_rng(4).normal(size=(2 * linalg._ROW_CHUNK + 5, g.n))
        B -= B.mean(axis=1, keepdims=True)
        X = rd.solve_laplacian_many(solver, B, 1e-8)
        want = B @ np.linalg.pinv(rd.assemble_laplacian(g).toarray())
        assert np.allclose(X, want, rtol=0.0, atol=1e-10 * np.abs(want).max())

    def test_disconnected_rejected_at_construction(self):
        g = rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(rd.DisconnectedGraphError, match="2 connected components"):
            rd.LaplacianSolver(g)

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_shared_solver_matches_fresh(self, method):
        # solves on a shared solver do not depend on the solves before them
        rng = np.random.default_rng(12)
        g = random_connected_graph(rng, max_n=30)
        B = rng.normal(size=(3, g.n))
        B -= B.mean(axis=1, keepdims=True)
        shared = rd.LaplacianSolver(g, method)
        rd.solve_laplacian_many(shared, B[:2], 1e-6)
        fresh = rd.LaplacianSolver(g, method)
        assert (rd.solve_laplacian_many(shared, B[2:], 1e-6).tobytes()
                == rd.solve_laplacian_many(fresh, B[2:], 1e-6).tobytes())

    @pytest.mark.parametrize("method", ["dense", "sparse", "iterative"])
    def test_batch_left_unchanged(self, method, monkeypatch):
        # the solutions go to a copy: only the sketch's private in-place
        # solve overwrites its right-hand sides
        g = rd.grid2d(12)
        if method == "sparse":
            monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", g.n - 1)
        solver = rd.LaplacianSolver(g, "iterative" if method == "iterative" else "auto")
        assert solver.method == method
        B = np.random.default_rng(9).normal(size=(3, g.n))
        B -= B.mean(axis=1, keepdims=True)
        before = B.copy()
        X = rd.solve_laplacian_many(solver, B, 1e-8)
        assert np.array_equal(B, before) and not np.shares_memory(X, B)

    @pytest.mark.parametrize("method", ["dense", "sparse"])
    def test_direct_solve_independent_of_batch_order(self, method, monkeypatch):
        # a caller may hand in a Fortran-ordered batch; the row means of a
        # direct solve must be summed as for a C-ordered copy
        g = rd.grid2d(12)
        if method == "sparse":
            monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", g.n - 1)
        solver = rd.LaplacianSolver(g)
        assert solver.method == method
        B = np.random.default_rng(8).normal(size=(g.n, 40)).T
        B -= B.mean(axis=1, keepdims=True)
        assert B.flags.f_contiguous and not B.flags.c_contiguous
        X = rd.solve_laplacian_many(solver, B, 1e-8)
        assert X.tobytes() == rd.solve_laplacian_many(solver, np.ascontiguousarray(B),
                                                      1e-8).tobytes()

    def test_zeta_validated(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="zeta"):
            rd.solve_laplacian_many(rd.LaplacianSolver(g), _unit_pair_rhs(3, 0, 2)[None], 1.0)


def tree_flow_energy(g, r):
    """Energy of the flow routing r − mean(r) along the shortest-path tree
    from vertex 0 (edge lengths 1/w), each tree edge carrying the sum of
    r − mean(r) over the vertices whose tree path to the root crosses it."""
    lengths = g.adjacency_matrix().copy()
    lengths.data = 1.0 / lengths.data
    _, pred = csgraph.dijkstra(lengths, directed=False, indices=0, return_predecessors=True)
    r = r - r.mean()
    energy = 0.0
    for v in range(1, g.n):
        below = [u for u in range(g.n) if _on_tree_path(pred, u, v)]
        energy += r[below].sum() ** 2 * lengths[pred[v], v]
    return energy


def _on_tree_path(pred, u, v):
    while u > 0 and u != v:
        u = pred[u]
    return u == v


def _unit_pair_rhs(n, s, t):
    b = np.zeros(n)
    b[s] = 1.0
    b[t] = -1.0
    return b


class TestStPotential:
    def test_single_edge(self):
        g = rd.build_graph(2, [(0, 1, 1.0)])
        p = rd.st_potential(rd.LaplacianSolver(g), 0, 1, 1e-8)
        assert p[1] == 0.0
        assert p[0] == pytest.approx(1.0, abs=1e-10)

    def test_path_linear_drop(self):
        p = rd.st_potential(rd.LaplacianSolver(path_graph(3)), 0, 2, 1e-8)
        assert np.allclose(p, [2.0, 1.0, 0.0], atol=1e-10)

    def test_triangle_against_pinv_oracle(self):
        g = rd.complete(3)
        expected = dense_pinv_solution(g, _unit_pair_rhs(3, 0, 1))
        expected -= expected[1]
        p = rd.st_potential(rd.LaplacianSolver(g), 0, 1, 1e-8)
        assert np.allclose(p, expected, atol=1e-10)
        assert np.allclose(p, [2 / 3, 0.0, 1 / 3], atol=1e-10)

    def test_sink_exactly_zero(self, corpus):
        for g in corpus[:10]:
            p = rd.st_potential(rd.LaplacianSolver(g), 0, g.n - 1, 1e-8)
            assert p[g.n - 1] == 0.0

    def test_maximum_principle_within_slack(self, corpus):
        for g in corpus[:20]:
            p = rd.st_potential(rd.LaplacianSolver(g), 0, g.n - 1, 1e-8)
            slack = 2 * rd.implied_potential_accuracy(g, 1e-8) + 1e-12
            assert p.max() <= p[0] + slack
            assert p.min() >= p[g.n - 1] - slack

    @pytest.mark.parametrize("s, t", [(True, 2), (0, 2.0), (0, np.float32(2)), (-1, 2), (0, 3)])
    def test_vertices_must_be_vertex_ids(self, s, t):
        # a bool or float id once answered for the vertex it indexes as
        solver = rd.LaplacianSolver(path_graph(3))
        with pytest.raises(ValueError, match="vertices"):
            rd.st_potential(solver, s, t, 1e-8)
        assert np.array_equal(rd.st_potential(solver, np.int64(0), np.uint8(2), 1e-8),
                              rd.st_potential(solver, 0, 2, 1e-8))

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            rd.st_potential(rd.LaplacianSolver(path_graph(3)), 1, 1, 1e-8)

    def test_each_solve_takes_its_own_zeta(self):
        # one PCG solver, a loose solve, then a tight one: each is within
        # the accuracy its own zeta implies, and the tight solve does not
        # depend on the solve before it
        g = rd.grid2d(5)
        solver = rd.LaplacianSolver(g, "iterative")
        exact = rd.st_potential(rd.LaplacianSolver(g, "dense"), 0, g.n - 1, 1e-8)
        loose = rd.st_potential(solver, 0, g.n - 1, 0.5)
        assert np.abs(loose - exact).max() <= rd.implied_potential_accuracy(g, 0.5)
        p = rd.st_potential(solver, 0, g.n - 1, 1e-10)
        assert np.abs(p - exact).max() <= rd.implied_potential_accuracy(g, 1e-10)
        assert p[0] == pytest.approx(exact_reff(g, 0, g.n - 1), abs=1e-8)

    @pytest.mark.parametrize("zeta", [np.nan, 0.0, 1.0])
    def test_zeta_validated(self, zeta):
        with pytest.raises(ValueError, match="zeta"):
            rd.st_potential(rd.LaplacianSolver(path_graph(3)), 0, 2, zeta)

    def test_read_only_float64_array(self):
        p = rd.st_potential(rd.LaplacianSolver(path_graph(3)), 0, 2, 1e-8)
        assert type(p) is np.ndarray and p.dtype == np.float64 and p.shape == (3,)
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p[0] = 1.0


class TestExactReff:
    @pytest.mark.parametrize("s, t", [(0.0, 2), (0, True), (np.float64(1), 2), (0, -1), (3, 0)])
    def test_vertices_must_be_vertex_ids(self, s, t):
        # exact_reff(g, 0.0, 2) once answered for vertex 0
        g = path_graph(3)
        with pytest.raises(ValueError, match="vertices"):
            exact_reff(g, s, t)
        assert exact_reff(g, np.int32(0), np.int64(2)) == exact_reff(g, 0, 2)

    def test_one_resistor(self):
        g = rd.build_graph(2, [(0, 1, 4.0)])
        assert exact_reff(g, 0, 1) == pytest.approx(0.25, rel=1e-12)

    def test_series(self):
        assert exact_reff(path_graph(3), 0, 2) == pytest.approx(2.0, rel=1e-12)

    def test_triangle_parallel(self):
        assert exact_reff(rd.complete(3), 0, 1) == pytest.approx(2 / 3, rel=1e-12)

    def test_complete_graph_formula(self):
        # Reff on K_n is 2/n for every pair; cross-check the pinv oracle too
        for n in (4, 6, 9):
            g = rd.complete(n)
            R = exact_reff_matrix(g)
            off = R[~np.eye(n, dtype=bool)]
            assert np.allclose(off, 2 / n, rtol=1e-9)
            assert exact_reff(g, 0, n - 1) == pytest.approx(2 / n, rel=1e-9)

    def test_symmetry_exact(self, corpus):
        for g in corpus[:10]:
            assert exact_reff(g, 0, g.n - 1) == exact_reff(g, g.n - 1, 0)

    def test_cross_component_infinite(self):
        g = rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(rd.InfiniteResistanceError):
            exact_reff(g, 0, 3)
        # within one component of a disconnected graph is fine
        assert exact_reff(g, 0, 1) == pytest.approx(1.0, rel=1e-12)

    def test_matrix_matches_pairwise(self, corpus):
        g = corpus[0]
        R = exact_reff_matrix(g)
        for s in range(g.n):
            for t in range(s + 1, g.n):
                assert R[s, t] == pytest.approx(exact_reff(g, s, t), abs=1e-9)

    def test_matrix_matches_pinv_reference(self, corpus):
        base = rd.grid2d(10)
        w = np.exp(np.random.default_rng(3).uniform(np.log(1e-2), np.log(1e2), base.m))
        skewed = rd.build_graph(base.n, zip(base.edge_u.tolist(), base.edge_v.tolist(), w))
        for g in corpus + [skewed]:
            P = np.linalg.pinv(rd.assemble_laplacian(g).toarray(), hermitian=True)
            d = np.diag(P)
            reference = d[:, None] + d[None, :] - 2 * P
            np.fill_diagonal(reference, 0.0)
            assert np.allclose(exact_reff_matrix(g), reference, rtol=1e-10, atol=0.0)

    def test_matrix_single_vertex(self):
        assert exact_reff_matrix(rd.build_graph(1, [])).tolist() == [[0.0]]

    def test_resistance_diameter(self):
        assert exact_reff_matrix(path_graph(5)).max() == pytest.approx(4.0, rel=1e-9)


class TestResistanceProperties:
    def test_thomson_consistency(self, corpus):
        for g in corpus[:15]:
            zeta = rd.required_solver_accuracy(g, 1e-8)
            p = rd.st_potential(rd.LaplacianSolver(g), 0, g.n - 1, zeta)
            drop = p[0] - p[g.n - 1]
            assert abs(drop - exact_reff(g, 0, g.n - 1)) <= 1e-6

    def test_metric_axioms(self, corpus):
        for g in corpus[:15]:
            R = exact_reff_matrix(g)
            assert np.allclose(R, R.T, atol=1e-9)
            assert np.all(np.diag(R) == 0)
            triple = R[:, :, None] + R[None, :, :]   # [i,j,k] = R(i,j) + R(j,k)
            assert (triple >= R[:, None, :] - 1e-9).all()

    def test_shortest_path_dominates(self, corpus):
        for g in corpus[:15]:
            A = g.adjacency_matrix().astype(float)
            A.data = 1.0 / A.data
            dist = csgraph.dijkstra(A, directed=False)
            R = exact_reff_matrix(g)
            assert (R <= dist + 1e-9).all()

    def test_foster_sum(self, corpus):
        for g in corpus[:15]:
            R = exact_reff_matrix(g)
            eu, ev, ew = g.edges()
            total = float((ew * R[eu, ev]).sum())
            assert total == pytest.approx(g.n - 1, abs=1e-6)

    def test_scaling_inverse(self, corpus):
        alpha = 3.7
        for g in corpus[:10]:
            h = rd.scale_weights(g, alpha)
            r_g = exact_reff(g, 0, g.n - 1)
            r_h = exact_reff(h, 0, g.n - 1)
            assert r_h == pytest.approx(r_g / alpha, rel=1e-9)


class TestTreeEnergyBound:
    """The PCG stop certificate: the energy of the flow that routes r along
    the solver's spanning tree bounds rᵀL†r, the squared energy-norm error."""

    @staticmethod
    def _ratios(g, count, seed):
        solver = rd.LaplacianSolver(g, "iterative")
        P = np.linalg.pinv(rd.assemble_laplacian(g).toarray(), hermitian=True)
        R = np.random.default_rng(seed).normal(size=(count, g.n))
        R -= R.mean(axis=1, keepdims=True)
        return np.array([linalg._tree_energy(solver, r) / (r @ P @ r) for r in R])

    def test_dominates_electrical_energy_on_corpus(self, corpus):
        for g in corpus:
            assert (self._ratios(g, 5, 1) >= 1 - 1e-9).all()

    def test_dominates_electrical_energy_on_skewed_graphs(self):
        for base in (rd.grid2d(8), rd.hypercube(6), rd.random_regular(100, 4, 2)):
            for spread in (1e2, 1e3):
                assert (self._ratios(skewed(base, spread), 5, 2) >= 1 - 1e-9).all()

    def test_matches_independent_tree_flow(self):
        g = skewed(rd.grid2d(5), 1e2)
        solver = rd.LaplacianSolver(g, "iterative")
        r = np.random.default_rng(3).normal(size=g.n)
        assert linalg._tree_energy(solver, r) == pytest.approx(tree_flow_energy(g, r), rel=1e-12)

    def test_equality_on_weighted_tree(self):
        # a tree routes r one way only, so the bound is the energy itself
        rng = np.random.default_rng(4)
        n = 40
        parents = [int(rng.integers(0, v)) for v in range(1, n)]
        w = np.exp(rng.uniform(-np.log(10.0), np.log(10.0), n - 1))
        g = rd.build_graph(n, [(p, v, float(x)) for p, v, x in zip(parents, range(1, n), w)])
        assert self._ratios(g, 5, 5) == pytest.approx(np.ones(5), rel=1e-12)


class TestRequiredSolverAccuracy:
    def test_single_unit_edge(self):
        g = rd.build_graph(2, [(0, 1, 1.0)])
        assert rd.required_solver_accuracy(g, 1e-3) == pytest.approx(1e-3, rel=1e-12)

    def test_unit_path(self):
        # zeta = eta * min_w / (n - 1)
        zeta = rd.required_solver_accuracy(path_graph(3), 1e-3)
        assert zeta == pytest.approx(1e-3 / 2, rel=1e-12)

    def test_doubled_weights(self):
        zeta = rd.required_solver_accuracy(path_graph(3, weight=2.0), 1e-3)
        assert zeta == pytest.approx(1e-3, rel=1e-12)

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            rd.required_solver_accuracy(rd.build_graph(3, []), 1e-3)

    def test_clamped_to_floor_and_cap(self):
        g = path_graph(3)
        assert rd.required_solver_accuracy(g, 1e-30) == ZETA_FLOOR
        assert rd.required_solver_accuracy(g, 1e30) == ZETA_CAP

    @pytest.mark.parametrize("eta", [np.nan, 0.0, -1.0])
    def test_invalid_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta"):
            rd.required_solver_accuracy(rd.grid2d(5), eta)


class TestImpliedPotentialAccuracy:
    def test_inverse_of_required_accuracy(self):
        g = path_graph(3, weight=2.0)
        assert rd.implied_potential_accuracy(g, 1e-3) == pytest.approx(1e-3, rel=1e-12)

    @pytest.mark.parametrize("zeta", [np.nan, 0.0, -1.0, 1.0])
    def test_invalid_zeta_rejected(self, zeta):
        with pytest.raises(ValueError, match="zeta"):
            rd.implied_potential_accuracy(rd.grid2d(5), zeta)

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

import resdecomp as rd
from resdecomp.linalg import ZETA_CAP, ZETA_FLOOR

from conftest import path_graph, random_connected_graph


def dense_pinv_solution(g, b):
    """Independent oracle: pseudo-inverse applied to b."""
    L = rd.assemble_laplacian(g).toarray()
    return np.linalg.pinv(L) @ b


def energy_norm(g, x):
    L = rd.assemble_laplacian(g)
    return float(np.sqrt(x @ (L @ x)))


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


class TestSolveLaplacian:
    def test_zero_rhs_gives_zero(self):
        g = path_graph(3)
        x = rd.solve_laplacian(rd.assemble_laplacian(g), np.zeros(3))
        assert np.array_equal(x, np.zeros(3))

    def test_single_edge_unit_drop(self):
        g = rd.build_graph(2, [(0, 1, 1.0)])
        x = rd.solve_laplacian(rd.assemble_laplacian(g), np.array([1.0, -1.0]))
        assert x[0] - x[1] == pytest.approx(1.0, abs=1e-10)

    def test_path_series_resistors(self):
        g = path_graph(3)
        x = rd.solve_laplacian(rd.assemble_laplacian(g), np.array([1.0, 0.0, -1.0]))
        assert x[0] - x[2] == pytest.approx(2.0, abs=1e-10)

    def test_result_orthogonal_to_ones(self):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng)
        b = rng.normal(size=g.n)
        b -= b.mean()
        x = rd.solve_laplacian(rd.assemble_laplacian(g), b)
        assert abs(x.sum()) < 1e-8 * max(1.0, np.abs(x).max())

    def test_disconnected_rejected(self):
        g = rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(rd.DisconnectedGraphError):
            rd.solve_laplacian(rd.assemble_laplacian(g), np.array([1.0, -1.0, 0.0, 0.0]))

    def test_nonzero_sum_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="sum to zero"):
            rd.solve_laplacian(rd.assemble_laplacian(g), np.array([1.0, 0.0, 0.0]))

    def test_iteration_budget_exhaustion_carries_residual(self):
        g = rd.grid2d(6)
        opts = rd.SolverOptions(zeta=1e-10, method="iterative", max_iterations=2)
        with pytest.raises(rd.ConvergenceError) as info:
            rd.solve_laplacian(rd.assemble_laplacian(g), _unit_pair_rhs(g.n, 0, g.n - 1), opts)
        assert info.value.residual > 0

    def test_energy_norm_contract_iterative(self, corpus):
        # the PCG stopping rule is a sufficient condition; check the real thing
        for g in corpus[:20]:
            b = _unit_pair_rhs(g.n, 0, g.n - 1)
            exact = dense_pinv_solution(g, b)
            for zeta in (1e-2, 1e-6):
                opts = rd.SolverOptions(zeta=zeta, method="iterative")
                x = rd.solve_laplacian(rd.assemble_laplacian(g), b, opts)
                assert energy_norm(g, x - exact) <= zeta * energy_norm(g, exact) + 1e-13

    def test_energy_norm_contract_dense(self, corpus):
        for g in corpus[:20]:
            b = _unit_pair_rhs(g.n, 0, 1)
            exact = dense_pinv_solution(g, b)
            x = rd.solve_laplacian(rd.assemble_laplacian(g), b, rd.SolverOptions(zeta=1e-8))
            assert energy_norm(g, x - exact) <= 1e-8 * energy_norm(g, exact) + 1e-13

    def test_deterministic(self):
        g = rd.grid2d(5)
        b = _unit_pair_rhs(g.n, 0, 24)
        opts = rd.SolverOptions(zeta=1e-6, method="iterative")
        x1 = rd.solve_laplacian(rd.assemble_laplacian(g), b, opts)
        x2 = rd.solve_laplacian(rd.assemble_laplacian(g), b, opts)
        assert np.array_equal(x1, x2)

    def test_batch_matches_single(self):
        g = rd.grid2d(4)
        L = rd.assemble_laplacian(g)
        B = np.stack([_unit_pair_rhs(g.n, 0, 5), _unit_pair_rhs(g.n, 3, 12)])
        X = rd.solve_laplacian_many(L, B)
        for row, b in zip(X, B):
            single = rd.solve_laplacian(L, b)
            assert np.allclose(row, single, atol=1e-12)

    def test_batch_iterative_branch(self):
        g = rd.grid2d(6)
        L = rd.assemble_laplacian(g)
        opts = rd.SolverOptions(zeta=1e-6, method="iterative")
        B = np.stack([_unit_pair_rhs(g.n, 0, 35), np.zeros(g.n)])
        X = rd.solve_laplacian_many(L, B, opts)
        assert np.array_equal(X[1], np.zeros(g.n))
        assert np.array_equal(X[0], rd.solve_laplacian(L, B[0], opts))

    @pytest.mark.parametrize("method", ["dense", "iterative"])
    def test_single_is_one_row_batch(self, method):
        rng = np.random.default_rng(12)
        g = random_connected_graph(rng, max_n=30)
        b = rng.normal(size=g.n)
        b -= b.mean()
        L = rd.assemble_laplacian(g)
        opts = rd.SolverOptions(zeta=1e-6, method=method)
        x = rd.solve_laplacian(L, b, opts)
        assert x.tobytes() == rd.solve_laplacian_many(L, b[None], opts)[0].tobytes()


def _unit_pair_rhs(n, s, t):
    b = np.zeros(n)
    b[s] = 1.0
    b[t] = -1.0
    return b


class TestStPotential:
    def test_single_edge(self):
        g = rd.build_graph(2, [(0, 1, 1.0)])
        p = rd.st_potential(g, 0, 1)
        assert p.values[1] == 0.0
        assert p.values[0] == pytest.approx(1.0, abs=1e-10)

    def test_path_linear_drop(self):
        p = rd.st_potential(path_graph(3), 0, 2)
        assert np.allclose(p.values, [2.0, 1.0, 0.0], atol=1e-10)

    def test_triangle_against_pinv_oracle(self):
        g = rd.complete(3)
        expected = dense_pinv_solution(g, _unit_pair_rhs(3, 0, 1))
        expected -= expected[1]
        p = rd.st_potential(g, 0, 1)
        assert np.allclose(p.values, expected, atol=1e-10)
        assert np.allclose(p.values, [2 / 3, 0.0, 1 / 3], atol=1e-10)

    def test_sink_exactly_zero(self, corpus):
        for g in corpus[:10]:
            p = rd.st_potential(g, 0, g.n - 1)
            assert p.values[g.n - 1] == 0.0

    def test_maximum_principle_within_slack(self, corpus):
        for g in corpus[:20]:
            p = rd.st_potential(g, 0, g.n - 1)
            slack = 2 * p.eta + 1e-12
            assert p.values.max() <= p.values[0] + slack
            assert p.values.min() >= p.values[g.n - 1] - slack

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            rd.st_potential(path_graph(3), 1, 1)

    def test_eta_metadata_matches_inverse_formula(self):
        g = path_graph(3)
        p = rd.st_potential(g, 0, 2, rd.SolverOptions(zeta=1e-6))
        assert p.eta == pytest.approx(rd.implied_potential_accuracy(g, 1e-6))


class TestExactReff:
    def test_one_resistor(self):
        g = rd.build_graph(2, [(0, 1, 4.0)])
        assert rd.exact_reff(g, 0, 1) == pytest.approx(0.25, rel=1e-12)

    def test_series(self):
        assert rd.exact_reff(path_graph(3), 0, 2) == pytest.approx(2.0, rel=1e-12)

    def test_triangle_parallel(self):
        assert rd.exact_reff(rd.complete(3), 0, 1) == pytest.approx(2 / 3, rel=1e-12)

    def test_complete_graph_formula(self):
        # Reff on K_n is 2/n for every pair; cross-check the pinv oracle too
        for n in (4, 6, 9):
            g = rd.complete(n)
            R = rd.exact_reff_matrix(g)
            off = R[~np.eye(n, dtype=bool)]
            assert np.allclose(off, 2 / n, rtol=1e-9)
            assert rd.exact_reff(g, 0, n - 1) == pytest.approx(2 / n, rel=1e-9)

    def test_symmetry_exact(self, corpus):
        for g in corpus[:10]:
            assert rd.exact_reff(g, 0, g.n - 1) == rd.exact_reff(g, g.n - 1, 0)

    def test_cross_component_infinite(self):
        g = rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(rd.InfiniteResistanceError):
            rd.exact_reff(g, 0, 3)
        # within one component of a disconnected graph is fine
        assert rd.exact_reff(g, 0, 1) == pytest.approx(1.0, rel=1e-12)

    def test_matrix_matches_pairwise(self, corpus):
        g = corpus[0]
        R = rd.exact_reff_matrix(g)
        for s in range(g.n):
            for t in range(s + 1, g.n):
                assert R[s, t] == pytest.approx(rd.exact_reff(g, s, t), abs=1e-9)

    def test_resistance_diameter(self):
        assert rd.exact_resistance_diameter(path_graph(5)) == pytest.approx(4.0, rel=1e-9)


class TestResistanceProperties:
    def test_thomson_consistency(self, corpus):
        for g in corpus[:15]:
            zeta = rd.required_solver_accuracy(g, 1e-8)
            p = rd.st_potential(g, 0, g.n - 1, rd.SolverOptions(zeta=zeta))
            drop = p.values[0] - p.values[g.n - 1]
            assert abs(drop - rd.exact_reff(g, 0, g.n - 1)) <= 1e-6

    def test_metric_axioms(self, corpus):
        for g in corpus[:15]:
            R = rd.exact_reff_matrix(g)
            assert np.allclose(R, R.T, atol=1e-9)
            assert np.all(np.diag(R) == 0)
            triple = R[:, :, None] + R[None, :, :]   # [i,j,k] = R(i,j) + R(j,k)
            assert (triple >= R[:, None, :] - 1e-9).all()

    def test_shortest_path_dominates(self, corpus):
        for g in corpus[:15]:
            A = g.adjacency_matrix().astype(float)
            A.data = 1.0 / A.data
            dist = csgraph.dijkstra(A, directed=False)
            R = rd.exact_reff_matrix(g)
            assert (R <= dist + 1e-9).all()

    def test_foster_sum(self, corpus):
        for g in corpus[:15]:
            R = rd.exact_reff_matrix(g)
            eu, ev, ew = g.edges()
            total = float((ew * R[eu, ev]).sum())
            assert total == pytest.approx(g.n - 1, abs=1e-6)

    def test_scaling_inverse(self, corpus):
        alpha = 3.7
        for g in corpus[:10]:
            h = rd.scale_weights(g, alpha)
            r_g = rd.exact_reff(g, 0, g.n - 1)
            r_h = rd.exact_reff(h, 0, g.n - 1)
            assert r_h == pytest.approx(r_g / alpha, rel=1e-9)


class TestLambda2LowerBound:
    def test_k3(self):
        g = rd.complete(3)
        bound = rd.lambda2_lower_bound(g)
        assert bound == pytest.approx(1 / 9, rel=1e-12)
        lam2 = np.linalg.eigvalsh(rd.assemble_laplacian(g).toarray())[1]
        assert lam2 == pytest.approx(3.0, abs=1e-9)
        assert bound <= lam2

    def test_single_edges(self):
        g1 = rd.build_graph(2, [(0, 1, 1.0)])
        assert rd.lambda2_lower_bound(g1) == pytest.approx(1.0)
        g4 = rd.build_graph(2, [(0, 1, 4.0)])
        assert rd.lambda2_lower_bound(g4) == pytest.approx(4.0)
        assert np.linalg.eigvalsh(rd.assemble_laplacian(g4).toarray())[1] == pytest.approx(8.0)

    def test_certified_on_corpus(self, corpus):
        for g in corpus:
            lam2 = np.linalg.eigvalsh(rd.assemble_laplacian(g).toarray())[1]
            assert rd.lambda2_lower_bound(g) <= lam2 + 1e-12

    def test_disconnected_rejected(self):
        g = rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(rd.DisconnectedGraphError):
            rd.lambda2_lower_bound(g)


class TestRequiredSolverAccuracy:
    def test_single_unit_edge(self):
        g = rd.build_graph(2, [(0, 1, 1.0)])
        assert rd.required_solver_accuracy(g, 1e-3) == pytest.approx(1e-3, rel=1e-12)

    def test_unit_path(self):
        zeta = rd.required_solver_accuracy(path_graph(3), 1e-3)
        assert zeta == pytest.approx(1e-3 / (2 * np.sqrt(2)), rel=1e-12)

    def test_doubled_weights(self):
        zeta = rd.required_solver_accuracy(path_graph(3, weight=2.0), 1e-3)
        assert zeta == pytest.approx(1e-3 * 4 / (4 * np.sqrt(2)), rel=1e-12)

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            rd.required_solver_accuracy(rd.build_graph(3, []), 1e-3)

    def test_clamped_to_floor_and_cap(self):
        g = path_graph(3)
        assert rd.required_solver_accuracy(g, 1e-30) == ZETA_FLOOR
        assert rd.required_solver_accuracy(g, 1e30) == ZETA_CAP

import math
import tracemalloc

import numpy as np
import pytest

import resdecomp as rd
from resdecomp.linalg import DENSE_SOLVE_LIMIT
from resdecomp.sweep import _level_profile

from conftest import exact_reff_matrix, fix_probe_count, log_uniform_mesh, path_graph, skewed

# Gate constant for the certificate-soundness property: whenever the exact
# resistance diameter exceeds CERTIFICATE_DIAMETER_FACTOR times the sketch
# estimate driving the cut, the best sweep score is expected to stay below
# the target. Calibrated on the 2d-grid family (side 4..24, worst observed
# score/target 0.23; suite-wide worst 0.50) and frozen.
CERTIFICATE_DIAMETER_FACTOR = 1.0


def brute_force_sweep(g, values, epsilon):
    """Independent oracle: recompute every level-set entry from scratch."""
    order = sorted(range(g.n), key=lambda v: (-values[v], v))
    entries = []
    for k in range(g.n - 1):
        if values[order[k]] <= values[order[k + 1]]:
            continue
        prefix = order[: k + 1]
        st = rd.cut_stats(g, prefix)
        if st.volume <= g.total_weight:
            side, vol = prefix, st.volume
        else:
            side, vol = order[k + 1:], 2 * g.total_weight - st.volume
        phi = st.boundary_weight / vol
        entries.append((sorted(side), st.boundary_weight, vol,
                        phi * vol ** (0.5 - epsilon)))
    return entries


class TestSweepLevelSets:
    def test_path_example(self):
        g = path_graph(3)
        prof = _level_profile(g, np.array([2.0, 1.0, 0.0]), 0.25)
        assert prof.ends.size == 2
        first, second = prof.stats(0), prof.stats(1)
        assert first.subset.tolist() == [0]
        assert prof.inside[0]
        assert (first.conductance, first.volume) == (1.0, 1.0)
        assert second.subset.tolist() == [2]
        assert not prof.inside[1]
        assert (second.conductance, second.volume) == (1.0, 1.0)

    def test_constant_potential_degenerate(self):
        with pytest.raises(rd.DegeneratePotentialError):
            _level_profile(path_graph(3), np.ones(3), 0.25)

    def test_barbell_bridge_cut_present(self):
        g = rd.barbell(4)
        p = rd.st_potential(rd.LaplacianSolver(g), 0, 5, 1e-10)
        prof = _level_profile(g, p, 0.25)
        bridge = [st for st in map(prof.stats, range(prof.ends.size))
                  if st.boundary_weight == pytest.approx(1.0, abs=1e-9)
                  and st.volume == pytest.approx(13.0, abs=1e-9)]
        assert bridge, "bridge cut missing from the sweep"
        assert bridge[0].conductance == pytest.approx(1 / 13, rel=1e-9)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            _level_profile(path_graph(3), np.array([2.0, 1.0, 0.0]), 0.5)

    def test_accepts_st_potential(self):
        g = path_graph(3)
        p = rd.st_potential(rd.LaplacianSolver(g), 0, 2, 1e-8)
        prof = _level_profile(g, p, 0.25)
        assert prof.stats(0).subset.tolist() == [0]

    def test_monotone_prefix_volume(self, corpus):
        for g in corpus[:10]:
            p = rd.st_potential(rd.LaplacianSolver(g), 0, g.n - 1, 1e-8)
            prof = _level_profile(g, p, 0.25)
            prefix_vols = [prof.stats(i).volume if prof.inside[i]
                           else 2 * g.total_weight - prof.stats(i).volume
                           for i in range(prof.ends.size)]
            assert all(a <= b + 1e-9 for a, b in zip(prefix_vols, prefix_vols[1:]))

    def test_reported_side_never_exceeds_half(self, corpus):
        for g in corpus[:10]:
            p = rd.st_potential(rd.LaplacianSolver(g), 0, g.n - 1, 1e-8)
            prof = _level_profile(g, p, 0.25)
            for i in range(prof.ends.size):
                stats = prof.stats(i)
                assert stats.volume <= g.total_weight + 1e-9
                assert prof.scores[i] == pytest.approx(
                    stats.conductance * stats.volume ** 0.25, rel=1e-12)

    def test_incremental_matches_direct_recompute(self, corpus):
        rng = np.random.default_rng(77)
        graphs = corpus[:8] + [rd.grid2d(8), rd.barbell(5)]
        for g in graphs:
            values = rng.normal(size=g.n)
            prof = _level_profile(g, values, 0.3)
            oracle = brute_force_sweep(g, values, 0.3)
            assert prof.ends.size == len(oracle)
            for i, (side, boundary, vol, score) in enumerate(oracle):
                stats = prof.stats(i)
                assert stats.subset.tolist() == side
                assert stats.boundary_weight == pytest.approx(boundary, rel=1e-9, abs=1e-12)
                assert stats.volume == pytest.approx(vol, rel=1e-9)
                assert prof.scores[i] == pytest.approx(score, rel=1e-9)

    def test_tie_handling_merges_equal_potentials(self):
        g = rd.complete(4)
        prof = _level_profile(g, np.array([1.0, 0.5, 0.5, 0.0]), 0.25)
        # only two strict drops: after {0} and after {0,1,2}
        assert prof.ends.size == 2
        assert prof.stats(0).subset.tolist() == [0]
        assert prof.stats(1).subset.tolist() == [3]

    def test_profile_memory_linear(self):
        # every prefix of a path is a level set: storing each side would
        # take about 34 MB here
        n = 4000
        g = path_graph(n)
        tracemalloc.start()
        try:
            prof = _level_profile(g, -np.arange(n, dtype=float), 0.25)
            best = prof.stats(int(np.argmin(prof.scores)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.ends.size == n - 1
        assert best.subset.size == n // 2
        assert peak < 40 * 8 * (g.n + g.m)


class TestFindSparseCut:
    def test_barbell4_bridge(self):
        res = rd.find_sparse_cut(rd.barbell(4), 0.25)
        assert res.subset.tolist() == [0, 1, 2, 3]
        assert res.stats.conductance == pytest.approx(1 / 13)
        assert res.stats.boundary_weight == 1.0
        assert res.stats.volume == 13.0

    def test_barbell8_bridge(self):
        res = rd.find_sparse_cut(rd.barbell(8), 0.25)
        assert res.stats.conductance == pytest.approx(1 / 57)

    def test_k8_returns_min_score_level_cut(self):
        g = rd.complete(8)
        res = rd.find_sparse_cut(g, 0.25)
        # replay the same potential and check the sweep minimum was returned
        p = rd.st_potential(rd.LaplacianSolver(g), res.source, res.sink, res.zeta)
        prof = _level_profile(g, p, 0.25)
        assert res.certificate_c == min(prof.scores)
        # the diameter really is tiny here, so no useful sparse cut exists:
        # the target derived from Reff = 1/4 sits above every balanced score
        assert exact_reff_matrix(g).max() == pytest.approx(0.25, rel=1e-9)
        expected_target = math.sqrt(2 * 7 ** -0.5 / (res.reff_estimate * 0.25))
        assert res.target_c == pytest.approx(expected_target, rel=1e-9)

    def test_grid16_score_close_to_axis_split(self, monkeypatch):
        # Exact-regime probes make the far pair the two opposite corners.
        # Their potential's level sets are diagonal bands, whose best score
        # is within a factor ~1.8 of the best axis-aligned half split (the
        # optimal level set of an adjacent-corner potential).
        g = rd.grid2d(16)
        fix_probe_count(monkeypatch, 512)  # at least m = 480
        res = rd.find_sparse_cut(g, 0.25, rd.SketchConfig(seed=0))
        assert (res.source, res.sink) == (0, 255)
        axis = rd.cut_stats(g, range(128))
        axis_score = axis.conductance * axis.volume ** 0.25
        assert res.certificate_c <= 1.8 * axis_score
        # and the returned cut is the best level cut of its own potential
        p = rd.st_potential(rd.LaplacianSolver(g), res.source, res.sink, res.zeta)
        prof = _level_profile(g, p, 0.25)
        assert res.certificate_c == min(prof.scores)

    def test_certificate_soundness_gated(self, corpus):
        # whenever the true diameter exceeds the gate times the driving
        # estimate, the achieved score must not exceed the target
        graphs = corpus + [rd.grid2d(k) for k in (4, 6, 8, 10)] + [rd.barbell(4), rd.complete(8)]
        triggered = 0
        for g in graphs:
            res = rd.find_sparse_cut(g, 0.25)
            rdiam = exact_reff_matrix(g).max()
            if rdiam > CERTIFICATE_DIAMETER_FACTOR * res.reff_estimate:
                triggered += 1
                assert res.certificate_c <= res.target_c
        assert triggered >= 1  # the gate is not vacuous on this corpus

    def test_cut_stats_consistent(self, corpus):
        for g in corpus[:10]:
            res = rd.find_sparse_cut(g, 0.25)
            st = rd.cut_stats(g, res.subset)
            side_vol = min(st.volume, 2 * g.total_weight - st.volume)
            assert res.stats.boundary_weight == pytest.approx(st.boundary_weight, rel=1e-9)
            assert res.stats.volume == pytest.approx(side_vol, rel=1e-9)

    def test_sparse_backend_matches_pcg_on_mesh(self):
        # 46x46 with weight spread 10: above the dense limit, auto factors it
        g = log_uniform_mesh(46, 1.0, 10.0, seed=7)
        assert rd.LaplacianSolver(g).method == "sparse"
        auto = rd.find_sparse_cut(g)
        pcg = rd.find_sparse_cut(g, method="iterative")
        assert (auto.source, auto.sink) == (pcg.source, pcg.sink)
        assert auto.subset.tolist() == pcg.subset.tolist()
        assert auto.certificate_c == pytest.approx(pcg.certificate_c, rel=1e-9)

    def test_skewed_weights_above_dense_limit(self):
        # weights spanning 10^4 drive the PCG residual target below what
        # double precision attains; the mesh now goes to sparse LU instead
        g = log_uniform_mesh(60, 1e-2, 1e2, seed=1)
        assert g.n > DENSE_SOLVE_LIMIT
        res = rd.find_sparse_cut(g)
        st = rd.cut_stats(g, res.subset)
        side_vol = min(st.volume, 2 * g.total_weight - st.volume)
        assert res.stats.boundary_weight == pytest.approx(st.boundary_weight, rel=1e-9)
        assert res.stats.volume == pytest.approx(side_vol, rel=1e-9)

    @pytest.mark.parametrize("make", [lambda: rd.hypercube(8),
                                      lambda: rd.random_regular(200, 4, 0)],
                             ids=["hypercube8", "expander200"])
    @pytest.mark.parametrize("spread", [1e2, 1e3])
    def test_skewed_weights_on_pcg(self, make, spread):
        # the tree-energy stop certifies PCG on skewed weights, where a
        # residual target from a worst-case spectral-gap bound is out of reach
        g = skewed(make(), spread)
        res = rd.find_sparse_cut(g, method="iterative")
        st = rd.cut_stats(g, res.subset)
        assert 0 < res.subset.size < g.n
        assert res.stats.subset.tolist() == st.subset.tolist()
        assert res.stats.boundary_weight == pytest.approx(st.boundary_weight, rel=1e-9)
        assert res.stats.volume == pytest.approx(st.volume, rel=1e-9)
        assert res.certificate_c == pytest.approx(
            st.conductance * st.volume ** (0.5 - res.epsilon), rel=1e-9)
        # the cut's eta is the accuracy its zeta implies, and its potential
        # is within that eta of the dense oracle
        assert res.eta == rd.implied_potential_accuracy(g, res.zeta)
        p = rd.st_potential(rd.LaplacianSolver(g, "iterative"), res.source, res.sink, res.zeta)
        exact = rd.st_potential(rd.LaplacianSolver(g, "dense"), res.source, res.sink, 1e-8)
        assert np.abs(p - exact).max() <= res.eta

    def test_deterministic(self):
        g = rd.grid2d(6)
        cfg = rd.SketchConfig(seed=4)
        a = rd.find_sparse_cut(g, 0.25, cfg)
        b = rd.find_sparse_cut(g, 0.25, cfg)
        assert a.subset.tolist() == b.subset.tolist()
        assert a.certificate_c == b.certificate_c
        assert a.zeta == b.zeta

    def test_disconnected_rejected(self):
        g = rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(rd.DisconnectedGraphError):
            rd.find_sparse_cut(g, 0.25)

    def test_audit_fields_populated(self):
        res = rd.find_sparse_cut(rd.barbell(4), 0.25)
        assert res.zeta > 0
        assert res.eta > 0
        assert res.approx_slack > 0
        assert res.reff_estimate == pytest.approx(2.0, rel=1e-6)

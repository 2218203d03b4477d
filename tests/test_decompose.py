import math
import weakref

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

import resdecomp as rd
from resdecomp import decompose, linalg, sketch, sweep

from conftest import (exact_reff_matrix, fix_probe_count, path_graph, random_connected_graph,
                      target_scaled_config, two_triangles_bridge)


def recompute_cut_weight(g, blocks):
    label = np.full(g.n, -1)
    for i, b in enumerate(blocks):
        label[b] = i
    eu, ev, ew = g.edges()
    return float(ew[label[eu] != label[ev]].sum())


def assert_valid_partition(g, part):
    merged = np.sort(np.concatenate(part.blocks))
    assert merged.tolist() == list(range(g.n))
    assert part.cut_weight == pytest.approx(recompute_cut_weight(g, part.blocks),
                                            rel=1e-9, abs=1e-12)


class TestPruneLowDegree:
    def test_star_cascades_to_empty(self):
        g = rd.build_graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        pruned, removed, isolated = rd.prune_low_degree(g, 1.5)
        assert pruned.m == 0
        assert removed == pytest.approx(3.0)
        assert isolated.tolist() == [0, 1, 2, 3]

    def test_triangle_untouched(self):
        g = rd.complete(3)
        pruned, removed, isolated = rd.prune_low_degree(g, 1.0)
        assert pruned.m == 3
        assert removed == 0.0
        assert isolated.size == 0

    def test_threshold_zero_is_identity(self):
        rng = np.random.default_rng(30)
        g = random_connected_graph(rng)
        pruned, removed, isolated = rd.prune_low_degree(g, 0.0)
        assert pruned.m == g.m and removed == 0.0 and isolated.size == 0

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_connected_graph(rng)
            threshold = float(np.median(g.degrees) / 2)
            p1, r1, _ = rd.prune_low_degree(g, threshold)
            p2, r2, iso2 = rd.prune_low_degree(p1, threshold)
            assert r2 == 0.0 and iso2.size == 0
            assert p2.m == p1.m

    def test_partial_cascade(self):
        # leaf chain hanging off a triangle: pruning eats the chain only
        g = rd.build_graph(5, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                               (2, 3, 1.0), (3, 4, 1.0)])
        pruned, removed, isolated = rd.prune_low_degree(g, 1.0)
        assert removed == pytest.approx(2.0)
        assert isolated.tolist() == [3, 4]
        assert pruned.m == 3

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            rd.prune_low_degree(rd.complete(3), -1.0)


class TestDecompositionConfig:
    def test_for_graph_values(self):
        g = rd.complete(8)  # w(E) = 28
        c = rd.DecompositionConfig.for_graph(g, 4.0)
        assert c.cut_budget == pytest.approx(7.0)
        assert c.resistance_target == pytest.approx(16 * 8 / 7.0)  # ~18.29
        assert c.prune_threshold == pytest.approx(7.0 / 16.0)
        assert sweep.DEFAULT_EPSILON == 0.25  # the sweep epsilon the cuts use

    def test_delta_floor(self):
        # -5 squares above the floor, but the floor is on delta itself
        for delta in (1.5, -5.0):
            with pytest.raises(ValueError, match="at least 4"):
                rd.DecompositionConfig.for_graph(rd.complete(4), delta)

    def test_charge_floor_guides_to_raise_delta(self):
        # the message names the floor delta² >= 4/epsilon and the least delta
        for delta in (2.0, 3.9):
            with pytest.raises(ValueError, match=r"at least 4, the charge-amortization floor "
                                                 r"delta\^2 >= 4/epsilon at epsilon = 0.25"):
                rd.DecompositionConfig.for_graph(rd.complete(4), delta)

    def test_charge_floor_edge(self):
        rd.DecompositionConfig.for_graph(rd.complete(4), 4.0)  # 16 >= 16, ok

    @pytest.mark.parametrize("delta", [math.nan], ids=["delta"])
    def test_nan_rejected(self, delta):
        with pytest.raises(ValueError, match="at least 4"):
            rd.DecompositionConfig.for_graph(rd.grid2d(6), delta)

    def test_no_target_constant(self):
        # the target is delta³·n/w(E); no constant scales it
        g = rd.grid2d(6)
        with pytest.raises(TypeError):
            rd.DecompositionConfig.for_graph(g, 8.0, 4.0)
        with pytest.raises(TypeError):
            rd.partition(g, 8.0, c_r=4.0)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            rd.DecompositionConfig.for_graph(rd.build_graph(0, []), 4.0)

    def test_huge_delta_saturates_to_infinity(self):
        # delta ** 2 and delta ** 3 raise OverflowError here; the products
        # saturate to inf
        g = rd.grid2d(6)
        assert math.isinf(rd.DecompositionConfig.for_graph(g, 1e200).resistance_target)
        part, report = rd.partition(g, 1e155)
        assert [b.tolist() for b in part.blocks] == [list(range(g.n))]
        assert math.isinf(report.config.resistance_target)
        rec = rd.verify_partition(g, part, 1e200)
        assert rec.rdiam_bound == math.inf
        assert rec.passed
        # Python ints too: converted to float before any product, beyond the
        # float range to inf
        assert math.isinf(rd.DecompositionConfig.for_graph(g, 10 ** 400).resistance_target)
        rec = rd.verify_partition(rd.grid2d(3), [range(9)], 10 ** 200)
        assert rec.rdiam_bound == math.inf
        assert rec.passed


class TestPartition:
    def test_k8_single_block(self):
        part, report = rd.partition(rd.complete(8), 4.0)
        assert len(part.blocks) == 1
        assert part.blocks[0].tolist() == list(range(8))
        assert report.loss_fraction == 0.0
        assert report.config.resistance_target >= exact_reff_matrix(rd.complete(8)).max()

    def test_two_triangles_bridge_splits(self):
        g = two_triangles_bridge()
        config = rd.DecompositionConfig(delta=2.0, n_original=6, cut_budget=3.5,
                                        resistance_target=1.5)
        part, report = rd.partition_with_config(g, config)
        assert [b.tolist() for b in part.blocks] == [[0, 1, 2], [3, 4, 5]]
        assert part.cut_weight == pytest.approx(1.0)
        assert report.loss_fraction == pytest.approx(1 / 7)
        for br in report.per_block_rdiam:
            assert br.certified_exact
            assert br.value == pytest.approx(2 / 3, rel=1e-9)
        # the single type-(ii) cut charged the small side's three edges
        assert report.type_ii_weight == pytest.approx(1.0)
        assert report.type_i_weight == 0.0
        assert float((report.psi * g.edge_w).sum()) == pytest.approx(1.0, rel=1e-12)

    def test_disconnected_input_refines_components(self):
        g = rd.build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        part, _ = rd.partition(g, 4.0)
        for b in part.blocks:
            labels = {0 if x < 3 else 1 for x in b.tolist()}
            assert len(labels) == 1
        assert_valid_partition(g, part)

    def test_path40_public_pipeline_cuts_middle(self):
        g = path_graph(40)
        part, report = rd.partition_with_config(g, target_scaled_config(g, 2.0, 4.0))
        assert report.config.resistance_target == pytest.approx(4 * 4 * 40 / 19.5)
        assert len(part.blocks) == 2
        assert part.blocks[0].tolist() == list(range(20))
        assert part.blocks[1].tolist() == list(range(20, 40))
        assert report.type_i_weight == 0.0
        assert report.type_ii_weight == pytest.approx(1.0)
        assert float((report.psi * g.edge_w).sum()) == pytest.approx(report.type_ii_weight)
        assert report.num_sparse_cuts == 1
        assert_valid_partition(g, part)

    def test_pendant_leaf_is_pruned(self):
        edges = [(i, i + 1, 1.0) for i in range(39)] + [(5, 40, 0.01)]
        g = rd.build_graph(41, edges)
        part, report = rd.partition_with_config(g, target_scaled_config(g, 2.0, 4.0))
        assert report.type_i_weight == pytest.approx(0.01)
        assert [40] in [b.tolist() for b in part.blocks]
        assert report.num_pruned_vertices == 1
        assert report.cut_weight == pytest.approx(report.type_i_weight + report.type_ii_weight)
        assert_valid_partition(g, part)

    def test_stress_many_cuts_accounting(self):
        g = rd.grid2d(12)
        config = rd.DecompositionConfig(delta=4.0, n_original=g.n,
                                        cut_budget=g.total_weight / 4,
                                        resistance_target=2.0)
        part, report = rd.partition_with_config(g, config)
        assert report.num_sparse_cuts >= 3
        assert_valid_partition(g, part)
        # token conservation (eq of cut classes) and type-i budget
        charged = float((report.psi * g.edge_w).sum())
        assert charged == pytest.approx(report.type_ii_weight, rel=1e-9)
        assert report.uncharged_cut_weight == 0.0
        assert report.type_i_weight <= config.cut_budget / 2 + 1e-9
        # geometric charging: per-edge charge volumes halve in time order
        for vols in report.charge_volumes.values():
            for earlier, later in zip(vols, vols[1:]):
                assert later <= earlier / 2 + 1e-9
        # every block meets the accepted resistance level, with the sketch
        # slack factor: accepted when estimate <= target, so exact <= 3*target
        for br in report.per_block_rdiam:
            assert br.value <= 3 * config.resistance_target + 1e-9

    def test_off_regime_singleton_cut_sides_tracked(self):
        # a resistance target below the adjacent-pair level forces cuts whose
        # small side has no internal edges; that weight cannot be amortized
        # and is reported separately so the charge identity stays exact
        g = rd.grid2d(12)
        config = rd.DecompositionConfig(delta=4.0, n_original=g.n,
                                        cut_budget=g.total_weight / 4,
                                        resistance_target=1.2)
        part, report = rd.partition_with_config(g, config)
        assert_valid_partition(g, part)
        charged = float((report.psi * g.edge_w).sum())
        assert charged + report.uncharged_cut_weight == pytest.approx(
            report.type_ii_weight, rel=1e-9)
        assert report.uncharged_cut_weight > 0

    def test_deterministic(self):
        g = rd.grid2d(10)
        config = rd.DecompositionConfig(delta=4.0, n_original=g.n,
                                        cut_budget=g.total_weight / 4,
                                        resistance_target=1.0)
        p1, r1 = rd.partition_with_config(g, config)
        p2, r2 = rd.partition_with_config(g, config)
        assert [a.tolist() for a in p1.blocks] == [b.tolist() for b in p2.blocks]
        assert np.array_equal(r1.psi, r2.psi)
        assert r1.cut_weight == r2.cut_weight

    def test_scaling_leaves_blocks_unchanged(self):
        g = path_graph(40)
        h = rd.scale_weights(g, 3.7)
        p1, _ = rd.partition_with_config(g, target_scaled_config(g, 2.0, 4.0))
        p2, _ = rd.partition_with_config(h, target_scaled_config(h, 2.0, 4.0))
        assert [a.tolist() for a in p1.blocks] == [b.tolist() for b in p2.blocks]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            rd.partition(rd.build_graph(0, []), 4.0)

    def test_unknown_method_rejected_before_factoring(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("factored before checking the method")

        monkeypatch.setattr(linalg, "_grounded_cholesky", fail)
        monkeypatch.setattr(linalg.spla, "splu", fail)
        with pytest.raises(ValueError, match="unknown method"):
            rd.partition(rd.grid2d(8), 8.0, method="bogus")
        # a graph that needs no solver is checked too
        edgeless = rd.build_graph(3, [])
        with pytest.raises(ValueError, match="unknown method"):
            rd.partition(edgeless, 4.0, method="bogus")
        with pytest.raises(ValueError, match="unknown method"):
            rd.verify_partition(edgeless, [[0], [1], [2]], 4.0, method="bogus")

    def test_edgeless_graph_all_singletons(self):
        g = rd.build_graph(3, [])
        part, report = rd.partition(g, 4.0)
        assert [b.tolist() for b in part.blocks] == [[0], [1], [2]]
        assert report.loss_fraction == 0.0

    def test_each_component_sketched_once(self, monkeypatch):
        # the acceptance sketch also drives the cut and certifies the block
        sketched = {"decompose": [], "sweep": []}

        def counting(site, fn):
            def wrapped(h, *args, **kwargs):
                sketched[site].append(h)
                return fn(h, *args, **kwargs)
            return wrapped

        for module in (decompose, sweep):
            site = module.__name__.rpartition(".")[2]
            monkeypatch.setattr(module, "furthest_pair", counting(site, module.furthest_pair))
        components = []
        real_components = decompose.connected_components

        def recording_components(h):
            comps = real_components(h)
            components.extend(c for c in comps if c.size > 1)
            return comps

        monkeypatch.setattr(decompose, "connected_components", recording_components)
        g = rd.grid2d(12)
        config = rd.DecompositionConfig(delta=4.0, n_original=g.n,
                                        cut_budget=g.total_weight / 4,
                                        resistance_target=2.0)
        _, report = rd.partition_with_config(g, config)
        assert report.num_sparse_cuts >= 3
        assert sketched["sweep"] == []
        assert len(sketched["decompose"]) == len(components)
        assert len({id(h) for h in sketched["decompose"]}) == len(components)

    def test_one_solver_per_component_shared_by_the_cut(self, monkeypatch):
        # each non-singleton component gets one solver, released before the
        # next is built; its sketch and its cut's potential both use it
        built, sketched, potentials = [], [], []

        class RecordingSolver(rd.LaplacianSolver):
            def __init__(self, g, method="auto"):
                assert all(ref() is None for ref in built)
                super().__init__(g, method)
                built.append(weakref.ref(self))

        def recording_pair(real):
            def wrapped(g, cfg=None, solver=None):
                sketched.append(solver is built[-1]() and solver.graph is g)
                return real(g, cfg, solver)
            return wrapped

        def recording_potential(solver, s, t, zeta):
            potentials.append(solver is built[-1]())
            return real_potential(solver, s, t, zeta)

        real_potential = sweep.st_potential
        for module in (decompose, sweep):
            monkeypatch.setattr(module, "LaplacianSolver", RecordingSolver)
            monkeypatch.setattr(module, "furthest_pair", recording_pair(module.furthest_pair))
        monkeypatch.setattr(sweep, "st_potential", recording_potential)
        components = []
        real_components = decompose.connected_components

        def recording_components(h):
            comps = real_components(h)
            components.extend(c for c in comps if c.size > 1)
            return comps

        monkeypatch.setattr(decompose, "connected_components", recording_components)
        g = rd.grid2d(12)
        config = rd.DecompositionConfig(delta=4.0, n_original=g.n,
                                        cut_budget=g.total_weight / 4,
                                        resistance_target=2.0)
        _, report = rd.partition_with_config(g, config)
        assert report.num_sparse_cuts >= 3
        assert len(built) == len(components)
        assert sketched == [True] * len(components)
        assert potentials == [True] * report.num_sparse_cuts

        for record in (built, sketched, potentials):
            record.clear()
        rd.find_sparse_cut(rd.barbell(4))
        assert (len(built), sketched, potentials) == (1, [True], [True])

    def test_one_graph_laplacian_and_factor_per_work_item(self, monkeypatch):
        # 85 cuts make 171 work items, the root and both sides of each cut,
        # none a singleton: each is one graph, labelled and factored once;
        # its solver reads the labelling the recursion made. Every item is
        # dense, so none assembles a sparse Laplacian. A factor is inverted
        # at most once: the exact-regime sketch and an accepted block's
        # certificate read the same resistance matrix. The verifier builds
        # one of each per block.
        counts = dict.fromkeys(("graph", "labelling", "laplacian", "factor"), 0)
        inverted = []  # the factors themselves, so no id is reused

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        def inverting(factor):
            inverted.append(factor)
            return real_inverse(factor)

        real_inverse = linalg._grounded_reff_matrix
        monkeypatch.setattr(rd.WeightedGraph, "__init__",
                            counting("graph", rd.WeightedGraph.__init__))
        monkeypatch.setattr(csgraph, "connected_components",
                            counting("labelling", csgraph.connected_components))
        monkeypatch.setattr(linalg, "assemble_laplacian",
                            counting("laplacian", linalg.assemble_laplacian))
        monkeypatch.setattr(linalg, "_grounded_cholesky",
                            counting("factor", linalg._grounded_cholesky))
        monkeypatch.setattr(linalg, "_grounded_reff_matrix", inverting)
        g = rd.grid2d(24)
        config = rd.DecompositionConfig(delta=8.0, n_original=g.n,
                                        cut_budget=g.total_weight / 8,
                                        resistance_target=2.0)
        part, report = rd.partition_with_config(g, config)
        assert report.num_sparse_cuts == 85
        assert counts == {"graph": 171, "labelling": 171, "laplacian": 0, "factor": 171}
        assert len(part.blocks) <= len(inverted) <= 171
        assert len({id(f) for f in inverted}) == len(inverted)
        counts.update(dict.fromkeys(counts, 0))
        inverted.clear()
        rd.verify_partition(g, part, 8.0)
        assert len(part.blocks) == 86
        assert counts == {"graph": 86, "labelling": 86, "laplacian": 0, "factor": 86}
        assert len(inverted) == 86

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (1, 3)], [(0, 1), (0, 3), (1, 2)]],
                             ids=["star-k13", "path-3012"])
    def test_far_pair_at_target_accepted(self, edges):
        # from vertex 0 the far end is at resistance exactly 2, the target.
        # The exact estimate of the path 3-0-1-2 may round above 2 (a block
        # of this shape occurs in the grid2d(24) partition); a tie accepts.
        g = rd.build_graph(4, [(u, v, 1.0) for u, v in edges])
        assert rd.furthest_pair(g)[2] == pytest.approx(2.0, rel=1e-12)
        config = rd.DecompositionConfig(delta=8.0, n_original=g.n,
                                        cut_budget=g.total_weight / 8,
                                        resistance_target=2.0)
        part, report = rd.partition_with_config(g, config)
        assert [b.tolist() for b in part.blocks] == [[0, 1, 2, 3]]
        assert report.num_sparse_cuts == 0 and report.num_pruned_vertices == 0

    @pytest.mark.parametrize("probes", [None, 10])
    def test_block_certificates_match_verifier(self, monkeypatch, probes):
        # oracle-certified and sketch-certified blocks both occur below the
        # lowered limit; probes=10 runs the sketch with fewer probes than edges
        monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", 8)
        if probes is not None:
            fix_probe_count(monkeypatch, probes)
        g = rd.grid2d(10)
        cfg = rd.SketchConfig()
        config = rd.DecompositionConfig(delta=4.0, n_original=g.n,
                                        cut_budget=g.total_weight / 4,
                                        resistance_target=2.0)
        part, report = rd.partition_with_config(g, config, cfg)
        rec = rd.verify_partition(g, part, 4.0, cfg=cfg)
        assert report.per_block_rdiam == rec.block_rdiams
        kinds = {(b.size > 1, r.certified_exact)
                 for b, r in zip(part.blocks, report.per_block_rdiam)}
        assert {(True, True), (True, False)} <= kinds

    def test_solver_limit_governs_sketch_and_certificate(self, monkeypatch):
        # grid2d(8) has k = 203 probes >= m = 112 edges, the sketch's exact
        # regime below the limit; above the patched one neither the sketch
        # nor the certificate forms the resistance matrix
        g = rd.grid2d(8)
        cfg = rd.SketchConfig()
        assert sketch._num_probes(cfg, g.n) == 203 and g.m == 112
        want = exact_reff_matrix(g)[0]

        def no_matrix(factor):
            raise AssertionError("resistance matrix formed above the limit")

        monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", 8)
        monkeypatch.setattr(linalg, "_grounded_reff_matrix", no_matrix)
        solver = rd.LaplacianSolver(g)
        assert solver.reff_matrix() is None
        # m probes reproduce the quadratic form exactly
        A = rd.approx_reff_from_source(g, 0, cfg, solver)
        assert np.allclose(A, want, rtol=1e-9, atol=0.0)
        assert not decompose._certify_block(solver, cfg).certified_exact

    def test_verifier_reads_patched_oracle_limit(self, monkeypatch):
        # the limit is read when verify_partition runs, as the partition reads it
        g = rd.grid2d(6)
        blocks = [np.arange(g.n)]
        assert rd.verify_partition(g, blocks, 4.0).block_rdiams[0].certified_exact
        monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", 8)
        assert not rd.verify_partition(g, blocks, 4.0).block_rdiams[0].certified_exact


class TestAccounting:
    def test_charges_match_edge_loop_reference(self):
        # a cut side inside a work item: both hold ascending root ids
        g = rd.grid2d(5)
        root_ids = np.array([1, 2, 3, 6, 7, 8, 11, 12, 13, 16, 17, 18])
        sub, _ = rd.induced_subgraph(g, root_ids)
        subset = np.array([0, 1, 3, 4, 5, 8])
        side, _ = rd.induced_subgraph(sub, subset)
        acct = decompose._Accounting(g)
        acct.charge_cut(side, root_ids[subset], 2.0, 5.0)
        eu, ev, ew = g.edges()
        index = {(int(a), int(b)): i for i, (a, b) in enumerate(zip(eu, ev))}
        su, sv, sw = sub.edges()
        internal = np.isin(su, subset) & np.isin(sv, subset)
        charge = 2.0 / float(sw[internal].sum())
        expected = np.zeros(g.m)
        volumes = {}
        for a, b in zip(root_ids[su[internal]], root_ids[sv[internal]]):
            i = index[(int(min(a, b)), int(max(a, b)))]
            expected[i] += charge
            volumes.setdefault(i, []).append(5.0)
        assert len(volumes) == 6
        assert acct.psi.tobytes() == expected.tobytes()
        assert list(acct.charge_volumes.items()) == list(volumes.items())


class TestVerifyPartition:
    def test_whole_vertex_set(self):
        g = two_triangles_bridge()
        rec = rd.verify_partition(g, [list(range(6))], 4.0)
        assert rec.loss_fraction == 0.0
        assert rec.loss_ok
        assert len(rec.block_rdiams) == 1
        assert rec.block_rdiams[0].value == pytest.approx(
            exact_reff_matrix(g).max(), rel=1e-9)

    def test_singletons_on_k3(self):
        g = rd.complete(3)
        rec = rd.verify_partition(g, [[0], [1], [2]], 4.0)
        assert rec.loss_fraction == pytest.approx(1.0)
        assert rec.loss_ok  # the loss bound at delta=4 is 8/4 = 2
        for br in rec.block_rdiams:
            assert br.value == 0.0
        # a tighter delta makes the same loss fail the bound
        assert not rd.verify_partition(g, [[0], [1], [2]], 16.0).loss_ok

    def test_triangles_bridge_manual_split(self):
        g = two_triangles_bridge()
        rec = rd.verify_partition(g, [[0, 1, 2], [3, 4, 5]], 4.0)
        assert rec.cut_weight == pytest.approx(1.0)
        assert rec.loss_fraction == pytest.approx(1 / 7)
        for br in rec.block_rdiams:
            assert br.value == pytest.approx(2 / 3, rel=1e-9)
        assert rec.passed

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            rd.verify_partition(rd.complete(3), [[0, 1], [1, 2]], 4.0)

    def test_missing_vertex_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            rd.verify_partition(rd.complete(3), [[0, 1]], 4.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            rd.verify_partition(rd.complete(3), [[0, 1], [2, 7]], 4.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
    def test_delta_must_be_positive(self, monkeypatch, delta):
        def certify(*args, **kwargs):
            raise AssertionError("a block was certified")

        monkeypatch.setattr(decompose, "_certify_block", certify)
        g = rd.grid2d(6)
        with pytest.raises(ValueError, match="delta must be positive"):
            rd.verify_partition(g, [list(range(g.n))], delta)

    def test_iterative_method_certifies_small_blocks_exactly(self):
        # the solver's Laplacian is factored for the certificate, bit for
        # bit as the dense backend factors it
        g = rd.grid2d(10)
        config = rd.DecompositionConfig(delta=4.0, n_original=g.n,
                                        cut_budget=g.total_weight / 4,
                                        resistance_target=2.0)
        part, _ = rd.partition_with_config(g, config)
        assert max(b.size for b in part.blocks) <= linalg.DENSE_SOLVE_LIMIT
        default = rd.verify_partition(g, part, 4.0)
        forced = rd.verify_partition(g, part, 4.0, method="iterative")
        assert all(r.certified_exact for r in forced.block_rdiams)
        assert ([r.value.hex() for r in forced.block_rdiams]
                == [r.value.hex() for r in default.block_rdiams])
        assert forced == default

    def test_iterative_certificate_builds_no_pcg_tree(self, monkeypatch):
        # a block of at most DENSE_SOLVE_LIMIT vertices is certified from a
        # factor; PCG's spanning tree waits for the first PCG solve
        built = []
        real = linalg._spanning_tree

        def recording(g):
            built.append(g.n)
            return real(g)

        monkeypatch.setattr(linalg, "_spanning_tree", recording)
        g = rd.grid2d(10)
        solver = rd.LaplacianSolver(g, "iterative")
        assert decompose._certify_block(solver, rd.SketchConfig()).certified_exact
        config = rd.DecompositionConfig(delta=4.0, n_original=g.n,
                                        cut_budget=g.total_weight / 4,
                                        resistance_target=2.0)
        part, _ = rd.partition_with_config(g, config)
        built.clear()
        rd.verify_partition(g, part, 4.0, method="iterative")
        assert built == []
        for _ in range(2):
            rd.st_potential(solver, 0, g.n - 1, 1e-8)
        assert built == [g.n]

    @pytest.mark.parametrize("blocks", [
        [[0, 1, 2, 3], [4, 5, 6, 7.9]],
        [[0, 1, 2, 3], "4567"],
        [[True, 0, 2, 3], [4, 5, 6, 7]],
        [[0, 1, 2, 3], [4, 5, 6, 7, None]],
        [[0, 1, 2, 3], [4, 5, 6, 7], None],
        [np.arange(4), np.arange(4, 8) + 0.0],
        list(range(8)),
    ])
    def test_block_not_integer_sequence_rejected(self, blocks):
        with pytest.raises(ValueError, match=r"block \d+ is not a sequence of integer"):
            rd.verify_partition(rd.hypercube(3), blocks, 4.0)

    def test_integer_sequences_accepted(self):
        blocks = [range(3), (3,), list(np.arange(4, 6)), np.array([6, 7], dtype=np.int32), []]
        rec = rd.verify_partition(rd.hypercube(3), blocks, 4.0)
        assert len(rec.block_rdiams) == 5

    def test_disconnected_block_infinite_diameter(self, monkeypatch):
        g = path_graph(4)
        # the block's solver rejects it below and above the oracle limit
        for limit in (linalg.DENSE_SOLVE_LIMIT, 1):
            monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", limit)
            rec = rd.verify_partition(g, [[0, 3], [1, 2]], 4.0)
            assert math.isinf(rec.block_rdiams[0].value)
            assert rec.block_rdiams[0].certified_exact
            assert not rec.rdiam_ok

    def test_decompose_then_verify_passes(self, corpus):
        for g in corpus[:10]:
            part, _ = rd.partition(g, 4.0)
            rec = rd.verify_partition(g, part, 4.0)
            assert rec.loss_ok and rec.rdiam_ok

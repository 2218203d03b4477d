import math

import numpy as np
import pytest

import resdecomp as rd
from resdecomp import decompose, sweep

from conftest import path_graph, random_connected_graph, two_triangles_bridge


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
        assert c.epsilon == 0.25

    def test_delta_floor(self):
        with pytest.raises(ValueError, match="at least 2"):
            rd.DecompositionConfig.for_graph(rd.complete(4), 1.5)

    def test_charge_floor_guides_to_raise_delta(self):
        with pytest.raises(ValueError, match="raise delta"):
            rd.DecompositionConfig.for_graph(rd.complete(4), 2.0)  # 1*4 < 16

    def test_charge_floor_edge(self):
        rd.DecompositionConfig.for_graph(rd.complete(4), 4.0)  # 16 >= 16, ok

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            rd.DecompositionConfig.for_graph(rd.build_graph(0, []), 4.0)


class TestPartition:
    def test_k8_single_block(self):
        part, report = rd.partition(rd.complete(8), 4.0)
        assert len(part.blocks) == 1
        assert part.blocks[0].tolist() == list(range(8))
        assert report.loss_fraction == 0.0
        assert report.config.resistance_target >= rd.exact_resistance_diameter(rd.complete(8))

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
        part, report = rd.partition(g, 2.0, c_r=4.0)
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
        part, report = rd.partition(g, 2.0, c_r=4.0)
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
        p1, _ = rd.partition(g, 2.0, c_r=4.0)
        p2, _ = rd.partition(h, 2.0, c_r=4.0)
        assert [a.tolist() for a in p1.blocks] == [b.tolist() for b in p2.blocks]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            rd.partition(rd.build_graph(0, []), 4.0)

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

    @pytest.mark.parametrize("probes", [None, 10])
    def test_block_certificates_match_verifier(self, monkeypatch, probes):
        # oracle-certified and sketch-certified blocks both occur below the
        # lowered limit; probes=10 runs the sketch with fewer probes than edges
        monkeypatch.setattr(decompose, "ORACLE_BLOCK_LIMIT", 8)
        g = rd.grid2d(10)
        cfg = rd.SketchConfig(probe_count=probes)
        config = rd.DecompositionConfig(delta=4.0, n_original=g.n,
                                        cut_budget=g.total_weight / 4,
                                        resistance_target=2.0)
        part, report = rd.partition_with_config(g, config, cfg)
        rec = rd.verify_partition(g, part, 4.0, oracle_limit=8, cfg=cfg)
        assert report.per_block_rdiam == rec.block_rdiams
        kinds = {(b.size > 1, r.certified_exact)
                 for b, r in zip(part.blocks, report.per_block_rdiam)}
        assert {(True, True), (True, False)} <= kinds


class TestVerifyPartition:
    def test_whole_vertex_set(self):
        g = two_triangles_bridge()
        rec = rd.verify_partition(g, [list(range(6))], 4.0)
        assert rec.loss_fraction == 0.0
        assert rec.loss_ok
        assert len(rec.block_rdiams) == 1
        assert rec.block_rdiams[0].value == pytest.approx(
            rd.exact_resistance_diameter(g), rel=1e-9)

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

    def test_disconnected_block_infinite_diameter(self):
        g = path_graph(4)
        rec = rd.verify_partition(g, [[0, 3], [1, 2]], 4.0)
        assert math.isinf(rec.block_rdiams[0].value)
        assert not rec.rdiam_ok

    def test_decompose_then_verify_passes(self, corpus):
        for g in corpus[:10]:
            part, _ = rd.partition(g, 4.0)
            rec = rd.verify_partition(g, part, 4.0)
            assert rec.loss_ok and rec.rdiam_ok

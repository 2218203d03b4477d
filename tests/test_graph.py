import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

import resdecomp as rd

from conftest import exact_reff, exact_reff_matrix, random_connected_graph


def test_public_api_resolves():
    assert [name for name in rd.__all__ if not hasattr(rd, name)] == []
    assert len(rd.__all__) == len(set(rd.__all__))
    # the dense resistance oracles are test helpers, not library names
    assert not {"exact_reff", "exact_reff_matrix"} & set(dir(rd))


class TestBuildGraph:
    def test_parallel_edges_merge_by_sum(self):
        g = rd.build_graph(2, [(0, 1, 1.0), (0, 1, 2.0)])
        assert g.m == 1
        assert g.total_weight == 3.0
        nbrs, wts = g.neighbors(0)
        assert nbrs.tolist() == [1] and wts.tolist() == [3.0]

    def test_self_loops_dropped(self):
        g = rd.build_graph(3, [(2, 2, 5.0)])
        assert g.m == 0
        assert g.total_weight == 0.0
        assert g.edge_w.dtype == np.float64
        assert np.all(g.degrees == 0)

    def test_merge_matches_sequential_sum(self):
        # many parallel entries in both orientations: each pair's weight is
        # the sum of its entries in input order, pairs in (u, v) order
        rng = np.random.default_rng(3)
        n = 40
        edges = [(int(u), int(v), float(w)) for u, v, w in zip(
            rng.integers(0, n, 3000), rng.integers(0, n, 3000), rng.uniform(0.1, 3.0, 3000))]
        merged = {}
        for u, v, w in edges:
            if u != v:
                key = (min(u, v), max(u, v))
                merged[key] = merged.get(key, 0.0) + w
        keys = sorted(merged)
        g = rd.build_graph(n, edges)
        assert g.edge_u.tolist() == [u for u, _ in keys]
        assert g.edge_v.tolist() == [v for _, v in keys]
        assert g.edge_w.tolist() == [merged[k] for k in keys]

    def test_vertex_count_beyond_int64_pair_keys_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            rd.build_graph(2 ** 32, [(0, 2 ** 32 - 1, 1.0)])

    def test_empty_edge_list(self):
        g = rd.build_graph(3, [])
        assert (g.n, g.m, g.total_weight) == (3, 0, 0.0)

    def test_merge_order_independent(self):
        g1 = rd.build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        g2 = rd.build_graph(3, [(2, 1, 2.0), (1, 0, 1.0)])
        assert np.array_equal(g1.edge_u, g2.edge_u)
        assert np.array_equal(g1.edge_w, g2.edge_w)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_weights_with_index(self, bad):
        with pytest.raises(ValueError, match="edge 1"):
            rd.build_graph(2, [(0, 1, 1.0), (0, 1, bad)])

    @pytest.mark.parametrize("edges, index", [
        ([(0.7, 1, 1.0), (True, 2, 2.0)], 0),
        ([(0, 1, 1.0), (True, 2, 2.0)], 1),
        ([(0, 1, 1.0), (1, np.float64(2.0), 1.0)], 1),
        ([(0, 1, 1.0), (1, 2, 1.0), (np.bool_(False), 2, 1.0)], 2),
        ([(0, "1", 1.0)], 0),
    ], ids=["float", "bool-among-ints", "numpy-float", "numpy-bool", "str"])
    def test_rejects_non_integer_ids_with_index(self, edges, index):
        # not truncated or read as 0/1
        with pytest.raises(ValueError, match=f"edge {index}: vertex ids must be integers"):
            rd.build_graph(3, edges)

    @pytest.mark.parametrize("n", [2.9, 3.0, True, "3"])
    def test_rejects_non_integer_vertex_count(self, n):
        with pytest.raises(ValueError, match="vertex count must be a non-negative integer"):
            rd.build_graph(n, [(0, 1, 1.0)])

    def test_numpy_integer_ids_and_count(self):
        g = rd.build_graph(np.int64(3), [(np.int32(0), np.uint8(2), 1.0)])
        assert (g.n, g.edge_u.tolist(), g.edge_v.tolist()) == (3, [0], [2])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            rd.build_graph(2, [(0, 2, 1.0)])

    def test_degrees_and_symmetry_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_connected_graph(rng)
            # degree cache equals adjacency row sums; total weight is half the sum
            for v in range(g.n):
                _, wts = g.neighbors(v)
                assert g.degrees[v] == pytest.approx(wts.sum())
            assert g.total_weight == pytest.approx(g.degrees.sum() / 2)
            # symmetric adjacency
            A = g.adjacency_matrix()
            assert abs(A - A.T).max() == 0

    def test_immutable(self):
        g = rd.build_graph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            g.edge_w[0] = 5.0


class TestCutStats:
    def test_k4_single_vertex(self):
        g = rd.complete(4)
        st = rd.cut_stats(g, {0})
        assert st.boundary_weight == 3.0
        assert st.volume == 3.0
        assert st.conductance == 1.0

    def test_k4_pair(self):
        st = rd.cut_stats(rd.complete(4), {0, 1})
        assert st.boundary_weight == 4.0
        assert st.volume == 6.0
        assert st.conductance == pytest.approx(2 / 3)

    def test_path_prefix(self):
        g = rd.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        st = rd.cut_stats(g, {0, 1})
        assert (st.boundary_weight, st.volume) == (1.0, 3.0)
        assert st.conductance == pytest.approx(1 / 3)

    def test_zero_volume_conductance_undefined(self):
        g = rd.build_graph(3, [(0, 1, 1.0)])
        st = rd.cut_stats(g, {2})
        assert st.volume == 0.0
        assert st.conductance is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rd.cut_stats(rd.complete(3), {5})

    def test_empty_set(self):
        for empty in ([], np.array([]), set()):
            st = rd.cut_stats(rd.complete(3), empty)
            assert (st.boundary_weight, st.volume) == (0.0, 0.0)
            assert st.conductance is None
            assert rd.induced_subgraph(rd.complete(3), empty)[0].n == 0

    @pytest.mark.parametrize("ids", [
        np.isin(np.arange(9), [4, 5, 7, 8]), [True, False], [0.9, 2.7], np.array([1.0, 2.0]),
        [True, 2], [0, True, 2], (np.int64(0), np.bool_(True)),
    ], ids=["bool-mask", "bool-list", "float-list", "float-array", "bool-among-ints",
            "bool-between-ints", "numpy-bool-among-numpy-ints"])
    def test_non_integer_ids_rejected(self, ids):
        # a boolean mask was read as the ids 0 and 1, and floats truncated;
        # numpy reads a bool among ints as 0 or 1
        g = rd.grid2d(3)
        for fn in (rd.cut_stats, rd.induced_subgraph):
            with pytest.raises(ValueError, match="integers"):
                fn(g, ids)

    def test_boundary_symmetric_and_volume_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_connected_graph(rng)
            s = rng.permutation(g.n)[: rng.integers(0, g.n + 1)]
            comp = np.setdiff1d(np.arange(g.n), s)
            a, b = rd.cut_stats(g, s), rd.cut_stats(g, comp)
            assert a.boundary_weight == pytest.approx(b.boundary_weight)
            assert a.volume + b.volume == pytest.approx(2 * g.total_weight)
            assert a.boundary_weight <= a.volume + 1e-12
            if a.conductance is not None:
                assert 0 <= a.conductance <= 1 + 1e-12

    def test_conductance_scale_invariant(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng)
        h = rd.scale_weights(g, 7.25)
        s = list(range(g.n // 2))
        a, b = rd.cut_stats(g, s), rd.cut_stats(h, s)
        if a.conductance is not None:
            assert b.conductance == pytest.approx(a.conductance, rel=1e-12)


class TestInducedSubgraph:
    def test_k4_triangle(self):
        h, mapping = rd.induced_subgraph(rd.complete(4), {0, 1, 2})
        assert (h.n, h.m) == (3, 3)
        assert mapping.tolist() == [0, 1, 2]

    def test_path_endpoints_isolated(self):
        g = rd.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        h, mapping = rd.induced_subgraph(g, {0, 2})
        assert (h.n, h.m) == (2, 0)
        assert mapping.tolist() == [0, 2]

    def test_full_set_is_identity(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng)
        h, mapping = rd.induced_subgraph(g, range(g.n))
        assert mapping.tolist() == list(range(g.n))
        assert np.array_equal(h.edge_u, g.edge_u)
        assert np.array_equal(h.edge_v, g.edge_v)
        assert np.array_equal(h.edge_w, g.edge_w)

    def test_weights_preserved(self):
        g = rd.build_graph(4, [(0, 1, 2.5), (1, 2, 1.5), (2, 3, 4.0)])
        h, mapping = rd.induced_subgraph(g, {1, 2, 3})
        assert h.total_weight == pytest.approx(5.5)
        assert mapping.tolist() == [1, 2, 3]


class TestConnectedComponents:
    def test_path_single_component(self):
        g = rd.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        comps = rd.connected_components(g)
        assert [c.tolist() for c in comps] == [[0, 1, 2]]

    def test_two_edges(self):
        g = rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert [c.tolist() for c in rd.connected_components(g)] == [[0, 1], [2, 3]]

    def test_isolated_vertices(self):
        g = rd.build_graph(3, [])
        assert [c.tolist() for c in rd.connected_components(g)] == [[0], [1], [2]]

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 15))
            pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(n, 2)) if a != b}
            g = rd.build_graph(n, [(a, b, 1.0) for a, b in pairs])
            comps = rd.connected_components(g)
            merged = np.sort(np.concatenate(comps))
            assert merged.tolist() == list(range(n))

    @pytest.mark.parametrize("n, m", [(1, 0), (300, 0), (300, 40), (300, 150), (2000, 900),
                                      (40, 400)])
    def test_matches_per_label_reference(self, n, m):
        # isolated vertices and many components, or (the last case) one: the
        # undirected labelling, one flatnonzero pass per label, sorted by
        # smallest id
        rng = np.random.default_rng(n + m)
        g = rd.build_graph(n, [(int(a), int(b), 1.0) for a, b in rng.integers(0, n, size=(m, 2))])
        ncomp, labels = csgraph.connected_components(g.adjacency_matrix(), directed=False)
        expected = sorted((np.flatnonzero(labels == c).tolist() for c in range(ncomp)),
                          key=lambda c: c[0])
        comps = rd.connected_components(g)
        assert [c.tolist() for c in comps] == expected
        assert all(c.dtype == np.int64 and not c.flags.writeable for c in comps)
        assert (ncomp == 1) == ((n, m) in ((1, 0), (40, 400)))

    def test_kept_read_only_and_labelled_once(self, monkeypatch):
        # the first ask labels the graph; later asks, the solver's
        # connectivity check and the resistance oracle's read the kept answer
        calls = []
        real = csgraph.connected_components

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(csgraph, "connected_components", counting)
        g = rd.build_graph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        comps = rd.connected_components(g)
        assert [c.tolist() for c in comps] == [[0, 1, 2], [3, 4]]
        for c in comps:
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[0] = 4
        assert rd.connected_components(g) is comps
        with pytest.raises(rd.DisconnectedGraphError):
            rd.LaplacianSolver(g)
        with pytest.raises(rd.DisconnectedGraphError):
            exact_reff_matrix(g)
        with pytest.raises(rd.InfiniteResistanceError):
            exact_reff(g, 0, 3)
        assert len(calls) == 1


class TestGenerators:
    def test_hypercube3(self):
        g = rd.hypercube(3)
        assert (g.n, g.m) == (8, 12)
        assert np.all(g.degrees == 3)

    def test_grid2d3(self):
        g = rd.grid2d(3)
        assert (g.n, g.m) == (9, 12)

    def test_complete4(self):
        g = rd.complete(4)
        assert (g.n, g.m) == (4, 6)

    def test_barbell4(self):
        g = rd.barbell(4)
        assert (g.n, g.m) == (8, 13)
        assert rd.cut_stats(g, {0, 1, 2, 3}).boundary_weight == 1.0

    def test_random_regular(self):
        g = rd.random_regular(10, 3, seed=7)
        assert np.all(g.degrees == 3)
        h = rd.random_regular(10, 3, seed=7)
        assert np.array_equal(g.edge_u, h.edge_u) and np.array_equal(g.edge_v, h.edge_v)

    def test_random_regular_odd_product_rejected(self):
        with pytest.raises(ValueError, match="even"):
            rd.random_regular(5, 3, seed=0)

    @pytest.mark.parametrize("family,kwargs", [
        ("hypercube", {"dim": 0}),
        ("grid2d", {"side": 1}),
        ("barbell", {"clique_size": 1}),
    ])
    def test_invalid_parameters_rejected(self, family, kwargs):
        with pytest.raises(ValueError):
            rd.generate(family, **kwargs)

    def test_generate_dispatch(self):
        g = rd.generate("hypercube", dim=3)
        assert g.n == 8
        with pytest.raises(ValueError, match="unknown family"):
            rd.generate("torus", k=2)


class TestEdgeList:
    def test_round_trip_digest(self, tmp_path):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng)
        path = tmp_path / "g.txt"
        rd.write_edgelist(g, path)
        h = rd.read_edgelist(path)
        assert (h.n, h.m) == (g.n, g.m)
        assert h.total_weight == g.total_weight  # exact: repr round-trips floats
        assert np.array_equal(h.edge_w, g.edge_w)

    def test_no_header_when_inferable(self):
        g = rd.hypercube(3)
        text = rd.format_edgelist(g)
        assert len(text.strip().splitlines()) == 12
        assert not text.startswith("n ")

    def test_header_preserves_isolated_vertices(self):
        g = rd.build_graph(5, [(0, 1, 1.0)])
        text = rd.format_edgelist(g)
        assert text.splitlines()[0] == "n 5"
        assert rd.parse_edgelist(text).n == 5

    def test_comments_and_blank_lines(self):
        g = rd.parse_edgelist("# a comment\n\n0 1 2.0\n# another\n1 2 1.0\n")
        assert (g.n, g.m, g.total_weight) == (3, 2, 3.0)

    def test_malformed_line_number_reported(self):
        with pytest.raises(rd.EdgeListFormatError, match="line 3"):
            rd.parse_edgelist("0 1 1.0\n1 2 1.0\n2 3\n")

    @pytest.mark.parametrize("weight", ["-2.0", "inf", "1e400", "nan"])
    def test_bad_weight_reported(self, weight):
        with pytest.raises(rd.EdgeListFormatError, match="line 1"):
            rd.parse_edgelist(f"0 1 {weight}\n")

    def test_header_too_small_rejected(self):
        with pytest.raises(ValueError, match="n=2"):
            rd.parse_edgelist("n 2\n0 3 1.0\n")

    def test_header_after_edge_rejected(self):
        with pytest.raises(rd.EdgeListFormatError, match="line 2"):
            rd.parse_edgelist("0 1 1.0\nn 4\n")

    # The grammar: blank lines and lines whose first non-blank character is
    # `#` are skipped; the first other line may be the header `n <count>`;
    # every other line is `u v w`. Each malformed line is named.
    @pytest.mark.parametrize("text, line", [
        ("0 1 1.0\n1 2 1.0 # a note\n", 2),
        ("0 1 1.0\n1 2 1.0#note\n", 2),
        ("# ids\n0 1 1.0\n\n1.5 2 1.0\n", 4),
        ("0 1 1.0 7\n", 1),
        ("n 3\nn 3\n0 1 1.0\n", 2),
        ("# count\nn -1\n", 2),
        ("n 2.0\n0 1 1.0\n", 1),
        ("n\n", 1),
        ("n 4 5\n", 1),
        ("0 -1 1.0\n", 1),
        ("0 1 x\n", 1),
        ("0 1 1E2\n1E2 1 1.0\n", 2),
    ], ids=["inline-comment", "inline-comment-unspaced", "float-id", "fourth-token",
            "header-twice", "negative-count", "float-count", "count-missing",
            "count-extra", "negative-id", "word-weight", "exponent-id"])
    def test_malformed_line_named(self, text, line):
        with pytest.raises(rd.EdgeListFormatError, match=f"^line {line}: ") as info:
            rd.parse_edgelist(text)
        assert info.value.line_number == line

    @pytest.mark.parametrize("bad", [(3, "-4 1 1.0"), (3, "0 1 0.0"), (5, "0 1")],
                             ids=["negative-id", "zero-weight", "two-tokens"])
    def test_first_malformed_line_named(self, bad):
        # an earlier line that fails a value check wins over a later one that
        # does not parse, and the other way round
        lines = ["0 1 1.0", "# note", "1 2 1.0", "", "2 3 1.0", "x y z", "0 3 -1.0"]
        lineno, text = bad
        lines[lineno - 1] = text
        with pytest.raises(rd.EdgeListFormatError, match=f"^line {lineno}: "):
            rd.parse_edgelist("\n".join(lines))

    @pytest.mark.parametrize("where", [0, 1, 517, 1998, 1999])
    def test_malformed_line_named_among_many(self, where):
        lines = [f"{i} {i + 1} 1.0" for i in range(2000)]
        lines[where] = f"{where} {where + 1} nan"
        with pytest.raises(rd.EdgeListFormatError, match=f"^line {where + 1}: weight"):
            rd.parse_edgelist("\n".join(lines) + "\n")

    def test_crlf_and_surrounding_whitespace_accepted(self):
        g = rd.parse_edgelist("# note\r\nn 4\r\n  0 1 1.5\t\r\n\r\n\t1 2 2.0  \r\n   # note\r\n")
        assert (g.n, g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()) == (
            4, [0, 1], [1, 2], [1.5, 2.0])

    @pytest.mark.parametrize("text", ["", "\n\n", "# only\n  # comments\n\n"],
                             ids=["empty", "blank", "comments"])
    def test_no_edges_no_vertices(self, text):
        g = rd.parse_edgelist(text)
        assert (g.n, g.m) == (0, 0)

    def test_header_only_gives_isolated_vertices(self):
        g = rd.parse_edgelist("n 5\n")
        assert (g.n, g.m) == (5, 0)
        assert g.edge_u.dtype == g.edge_v.dtype == np.int64 and g.edge_w.dtype == np.float64

    def test_signed_and_exponent_spellings(self):
        # a leading + on an id or the count, and an exponent on a weight
        g = rd.parse_edgelist("n +4\n+0 +3 1E2\n1 2 +2.5e-1\n")
        assert (g.n, g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()) == (
            4, [0, 1], [3, 2], [100.0, 0.25])

    @pytest.mark.parametrize("text, line", [
        ("1_0 1 1.0\n", 1), ("0 1 1_0.5\n", 1), ("n 1_0\n", 1), ("0 1 1.0\n\u0663 1 1.0\n", 2),
        ("0 1 1.0\x0c1 2 1.0\n", 1), ("0 1 1.0\n1 9223372036854775808 1.0\n", 2),
    ], ids=["underscore-id", "underscore-weight", "underscore-count", "non-ascii-digit",
            "form-feed-inside-line", "id-beyond-int64"])
    def test_spellings_outside_the_grammar_named(self, text, line):
        # Python's int and float take these; the grammar does not
        with pytest.raises(rd.EdgeListFormatError, match=f"^line {line}: "):
            rd.parse_edgelist(text)

    def test_vertex_beyond_header_count_named(self):
        with pytest.raises(rd.EdgeListFormatError,
                           match="^line 3: edge references vertex 5 but header declares n=3$"):
            rd.parse_edgelist("n 3\n0 1 1.0\n5 1 1.0\n2 7 1.0\n")

    def test_matches_per_line_reference(self):
        # parallel edges in both orientations, self-loops, skewed weights,
        # comments and blank lines: the graph of a per-line read through
        # Python's int and float and build_graph, bit for bit
        rng = np.random.default_rng(11)
        n = 300
        pairs = rng.integers(0, n, size=(2000, 2))
        weights = np.exp(rng.uniform(-20, 20, size=2000))
        lines = [f"{u} {v} {float(w)!r}" for (u, v), w in zip(pairs.tolist(), weights)]
        for i in sorted(rng.choice(2000, 40, replace=False).tolist(), reverse=True):
            lines.insert(i, "  # note" if i % 2 else " \t")
        g = rd.parse_edgelist(f"n {n}\n" + "\n".join(lines))
        edges = [line.split() for line in lines if line.strip() and not line.lstrip().startswith("#")]
        h = rd.build_graph(n, [(int(u), int(v), float(w)) for u, v, w in edges])
        assert h.m > 1000
        assert g.n == h.n
        for a, b in zip(g.edges(), h.edges()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

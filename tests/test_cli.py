import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resdecomp as rd
from resdecomp import cli, decompose, linalg, sweep
from resdecomp.cli import execute
from resdecomp.linalg import DENSE_SOLVE_LIMIT

from conftest import exact_reff, skewed


def run(capsys, *argv):
    code = execute(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def path3(tmp_path):
    p = tmp_path / "p3.txt"
    rd.write_edgelist(rd.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]), p)
    return str(p)


@pytest.fixture
def barbell4(tmp_path):
    p = tmp_path / "b4.txt"
    rd.write_edgelist(rd.barbell(4), p)
    return str(p)


@pytest.fixture(scope="module")
def bridged_meshes(tmp_path_factory):
    """Two grid2d(46) joined corner to corner by an edge of weight 0.01: one
    cut at the bridge leaves two blocks above the oracle limit."""
    grid = rd.grid2d(46)
    assert grid.n > DENSE_SOLVE_LIMIT
    edges = [(int(u) + off, int(v) + off, 1.0)
             for off in (0, grid.n) for u, v in zip(grid.edge_u, grid.edge_v)]
    edges.append((grid.n - 1, grid.n, 0.01))
    p = tmp_path_factory.mktemp("bridged") / "meshes.txt"
    rd.write_edgelist(rd.build_graph(2 * grid.n, edges), p)
    return str(p)


class TestGen:
    def test_hypercube_file_has_twelve_lines(self, capsys, tmp_path):
        out_file = tmp_path / "h3.txt"
        code, report = run_json(capsys, "gen", "--family", "hypercube",
                                "--dim", "3", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 12
        assert report["schema"] == 5
        assert report["results"] == {"written": str(out_file), "n": 8, "m": 12}

    def test_round_trip_digest(self, capsys, tmp_path):
        out_file = tmp_path / "g.txt"
        code, report = run_json(capsys, "gen", "--family", "random_regular",
                                "--n", "12", "--degree", "3", "--seed", "5",
                                "--out", str(out_file))
        assert code == 0
        g = rd.read_edgelist(out_file)
        assert (g.n, g.m, g.total_weight) == (report["input"]["n"], report["input"]["m"],
                                              report["input"]["total_weight"])

    def test_missing_out_is_usage_error(self, capsys):
        code, out = run(capsys, "gen", "--family", "hypercube", "--dim", "3")
        assert code == 1

    def test_bad_family_parameter(self, capsys, tmp_path):
        code, report = run_json(capsys, "gen", "--family", "grid2d", "--side", "1",
                                "--out", str(tmp_path / "x.txt"))
        assert code == 2
        assert "error" in report


class TestReff:
    def test_exact_on_path(self, capsys, path3):
        # --method dense is the exact answer: a direct solve; --exact is gone
        code, report = run_json(capsys, "reff", "--graph", path3,
                                "-s", "0", "-t", "2", "--method", "dense")
        assert code == 0
        assert report["results"]["reff"] == 2.0
        assert set(report["config"]) == {"s", "t", "zeta", "method"}
        assert set(report["results"]) == {"reff", "eta"}
        assert execute(["reff", "--graph", path3, "-s", "0", "-t", "2", "--exact"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --exact" in captured.err

    def test_potential_based(self, capsys, path3):
        code, report = run_json(capsys, "reff", "--graph", path3, "-s", "0", "-t", "2")
        assert code == 0
        assert report["results"]["reff"] == pytest.approx(2.0, abs=1e-8)
        assert report["results"]["eta"] > 0

    def test_missing_file_is_computation_error(self, capsys):
        code, report = run_json(capsys, "reff", "--graph", "/nonexistent.txt",
                                "-s", "0", "-t", "1")
        assert code == 2
        assert report["error"]["type"] == "ValueError"

    def test_cross_component_error(self, capsys, tmp_path):
        p = tmp_path / "two.txt"
        rd.write_edgelist(rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]), p)
        code, report = run_json(capsys, "reff", "--graph", str(p),
                                "-s", "0", "-t", "3", "--method", "dense")
        assert code == 2
        assert report["error"]["type"] == "InfiniteResistanceError"

    def test_potential_on_component_of_source(self, capsys, tmp_path):
        # the solve runs on the component of -s, as exact_reff does
        p = tmp_path / "two.txt"
        rd.write_edgelist(rd.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]), p)
        for s, t in ((0, 1), (3, 2)):
            code, report = run_json(capsys, "reff", "--graph", str(p), "-s", str(s), "-t", str(t))
            assert code == 0
            assert report["results"]["reff"] == pytest.approx(1.0, abs=1e-8)
        code, report = run_json(capsys, "reff", "--graph", str(p), "-s", "0", "-t", "3")
        assert code == 2
        assert report["error"]["type"] == "InfiniteResistanceError"

    def test_same_vertex_is_zero_on_both_paths(self, capsys, path3, monkeypatch):
        # s = t routes no flow: a direct and an iterative method both
        # report 0.0 without building a solver
        monkeypatch.setattr("resdecomp.cli.LaplacianSolver", None)
        monkeypatch.setattr("resdecomp.cli.st_potential", None)
        for method in ("dense", "iterative"):
            code, report = run_json(capsys, "reff", "--graph", path3, "-s", "1", "-t", "1",
                                    "--method", method)
            assert code == 0
            assert report["results"] == {"reff": 0.0, "eta": 0.0}

    @pytest.mark.parametrize("method", ["dense", "auto", "iterative"],
                             ids=["dense", "sparse", "iterative"])
    def test_swapped_pair_gives_identical_report(self, capsys, tmp_path, monkeypatch, method):
        # every backend answers Reff(s, t) and Reff(t, s) with the same bits
        g = skewed(rd.grid2d(12), 1e2)
        p = tmp_path / "g.txt"
        rd.write_edgelist(g, p)
        monkeypatch.setattr(linalg, "DENSE_SOLVE_LIMIT", 16)  # auto takes sparse LU here
        if method == "auto":
            assert rd.LaplacianSolver(g).method == "sparse"
        reports = []
        for s, t in (("5", "140"), ("140", "5")):
            code, report = run_json(capsys, "reff", "--graph", str(p), "-s", s, "-t", t,
                                    "--method", method)
            assert code == 0
            assert (report["config"].pop("s"), report["config"].pop("t")) == (int(s), int(t))
            reports.append(report)
        assert reports[0] == reports[1]
        solver = rd.LaplacianSolver(g, method)
        assert (rd.st_potential(solver, 5, 140, 1e-8)[5].hex()
                == rd.st_potential(solver, 140, 5, 1e-8)[140].hex())

    def test_malformed_edge_list_reports_line(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1 1.0\nnot an edge\n")
        code, report = run_json(capsys, "reff", "--graph", str(p), "-s", "0", "-t", "1")
        assert code == 2
        assert "line 2" in report["error"]["message"]

    def test_vertex_out_of_range(self, capsys, path3):
        code, report = run_json(capsys, "reff", "--graph", path3, "-s", "0", "-t", "9")
        assert code == 2
        assert "range" in report["error"]["message"]

    def test_zeta_is_the_answers_accuracy(self, capsys, barbell4):
        code, report = run_json(capsys, "reff", "--graph", barbell4, "-s", "0", "-t", "7",
                                "--zeta", "1e-6", "--method", "iterative")
        assert code == 0
        assert (report["config"]["zeta"], report["config"]["method"]) == (1e-6, "iterative")
        g = rd.read_edgelist(barbell4)
        want = rd.implied_potential_accuracy(g, 1e-6)
        assert report["results"]["eta"] == pytest.approx(want, rel=1e-11)
        assert report["results"]["reff"] == pytest.approx(exact_reff(g, 0, 7), abs=want)

    @pytest.mark.parametrize("zeta", ["0", "1", "nan"])
    def test_unusable_zeta_is_value_error(self, capsys, path3, zeta):
        # checked first: on s = t too, where nothing is solved, and before
        # the graph file is read
        for graph, s, t in ((path3, "0", "2"), (path3, "1", "1"), ("/nonexistent.txt", "0", "5")):
            code, report = run_json(capsys, "reff", "--graph", graph, "-s", s, "-t", t,
                                    "--zeta", zeta)
            assert code == 2
            assert report["error"]["type"] == "ValueError"
            assert report["error"]["message"].startswith("zeta must lie in (0, 1)")

    @pytest.mark.parametrize("flag", ["--probes", "--seed", "--beta"])
    def test_sketch_flags_are_usage_errors(self, capsys, path3, flag):
        # reff never sketches, so it takes only the solver flags
        assert execute(["reff", "--graph", path3, "-s", "0", "-t", "2", flag, "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 5" in captured.err


class TestCut:
    def test_barbell_bridge(self, capsys, barbell4):
        code, report = run_json(capsys, "cut", "--graph", barbell4, "--epsilon", "0.25")
        assert code == 0
        cut = report["results"]["cut"]
        assert cut["subset"] == [0, 1, 2, 3]
        assert cut["conductance"] == pytest.approx(1 / 13, rel=1e-9)
        assert report["results"]["certificate_c"] <= report["results"]["target_c"]
        # the potential's accuracy is derived, never requested
        assert "zeta_requested" not in report["config"] and report["config"]["zeta_used"] > 0

    def test_report_to_file(self, capsys, barbell4, tmp_path):
        out = tmp_path / "report.json"
        code, stdout = run(capsys, "cut", "--graph", barbell4, "--out", str(out))
        assert code == 0
        assert stdout == ""
        report = json.loads(out.read_text())
        assert report["command"] == "cut"

    @pytest.mark.parametrize("command", [("cut",), ("decompose", "--delta", "4")],
                             ids=["cut", "decompose"])
    def test_negative_seed_rejected_in_exact_regime(self, capsys, barbell4, command):
        # barbell4 runs the sketch's exact regime, which draws no probes, so
        # only the configuration check can catch the seed
        code, report = run_json(capsys, *command, "--graph", barbell4, "--seed", "-1")
        assert code == 2
        assert report["error"]["type"] == "ValueError"
        assert "seed" in report["error"]["message"]

    @pytest.mark.parametrize("beta", ["inf", "nan", "1e-200", "2", "1e308"])
    def test_unusable_beta_is_value_error(self, capsys, barbell4, beta):
        # inf, nan and beta above 1 fail the configuration check; 1e-200
        # asks for an infinite probe budget
        code, report = run_json(capsys, "cut", "--graph", barbell4, "--beta", beta)
        assert code == 2
        assert report["error"]["type"] == "ValueError"
        assert "beta" in report["error"]["message"]

    def test_memory_error_is_computation_error(self, capsys, barbell4, monkeypatch):
        # a probe sketch too large for memory is reported like any other
        # computation error
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 21.8 GiB")

        monkeypatch.setattr(cli, "find_sparse_cut", out_of_memory)
        code, report = run_json(capsys, "cut", "--graph", barbell4)
        assert code == 2
        assert report["error"] == {"type": "MemoryError", "message": "Unable to allocate 21.8 GiB"}

    def test_beta_one_runs(self, capsys, barbell4):
        code, report = run_json(capsys, "cut", "--graph", barbell4, "--beta", "1")
        assert code == 0
        assert report["config"]["beta"] == 1.0

    @pytest.mark.parametrize("argv", [("cut", "--probes", "2"),
                                      ("decompose", "--delta", "8", "--c-r", "4")],
                             ids=["cut-probes", "decompose-c_r"])
    def test_removed_flags_are_usage_errors(self, capsys, barbell4, argv):
        # the probe count and the target constant are not settings
        code, out = run(capsys, argv[0], "--graph", barbell4, *argv[1:])
        assert code == 1 and out == ""


class TestDecomposeVerify:
    def test_pipeline_and_partition_file(self, capsys, tmp_path):
        # the path of 80 vertices: resistance diameter 79 above the target
        # 4³·80/79 = 64.8 at delta 4, so one cut in the middle
        graph_file = tmp_path / "p80.txt"
        rd.write_edgelist(rd.build_graph(80, [(i, i + 1, 1.0) for i in range(79)]), graph_file)
        part_file = tmp_path / "part.json"
        code, report = run_json(capsys, "decompose", "--graph", str(graph_file),
                                "--delta", "4", "--partition-out", str(part_file))
        assert code == 0
        res = report["results"]
        assert res["num_blocks"] == 2
        assert res["loss_fraction"] == pytest.approx(1 / 79, rel=1e-9)
        assert res["psi_weighted_sum"] == pytest.approx(res["type_ii_weight"], rel=1e-9)

        code2, verify_report = run_json(capsys, "verify", "--graph", str(graph_file),
                                        "--partition", str(part_file),
                                        "--delta", "4")
        assert code2 == 0
        assert verify_report["results"]["passed"] is True
        assert verify_report["results"]["cut_weight"] == pytest.approx(res["cut_weight"])
        assert "resistance_target" not in verify_report["results"]
        # verify takes no --c-r: a usage error
        code3, _ = run(capsys, "verify", "--graph", str(graph_file),
                       "--partition", str(part_file), "--delta", "4", "--c-r", "4")
        assert code3 == 1

    def test_exact_verify_embedded(self, capsys, barbell4):
        code, report = run_json(capsys, "decompose", "--graph", barbell4,
                                "--delta", "4", "--exact-verify")
        assert code == 0
        assert report["results"]["verification"]["passed"] is True

    def test_exact_verify_matches_verify_command(self, capsys, bridged_meshes, tmp_path):
        # the embedded record reuses the run's sketch certificates; the
        # verify command re-derives them and must agree
        part_file = tmp_path / "part.json"
        code, report = run_json(capsys, "decompose", "--graph", bridged_meshes,
                                "--delta", "4", "--exact-verify",
                                "--partition-out", str(part_file))
        assert code == 0
        res = report["results"]
        assert res["num_sparse_cuts"] == 1
        assert [r["certified_exact"] for r in res["per_block_rdiam"]] == [False, False]
        code2, verify_report = run_json(capsys, "verify", "--graph", bridged_meshes,
                                        "--partition", str(part_file), "--delta", "4")
        assert code2 == 0
        assert res["verification"] == verify_report["results"]
        assert res["verification"]["block_rdiams"] == res["per_block_rdiam"]
        assert res["verification"]["passed"] is True

    def test_exact_verify_sketches_each_component_once(self, capsys, monkeypatch,
                                                       bridged_meshes):
        calls = []

        def counting(fn):
            def wrapped(h, *args, **kwargs):
                calls.append(h.n)
                return fn(h, *args, **kwargs)
            return wrapped

        for module in (decompose, sweep):
            monkeypatch.setattr(module, "furthest_pair", counting(module.furthest_pair))
        code, report = run_json(capsys, "decompose", "--graph", bridged_meshes,
                                "--delta", "4", "--exact-verify")
        assert code == 0
        res = report["results"]
        # every non-singleton component is either cut or accepted as a block
        components = res["num_sparse_cuts"] + sum(len(b) > 1 for b in res["blocks"])
        assert len(calls) == components == 3

    def test_huge_delta_runs(self, capsys, barbell4):
        # delta ** 3 overflowed to an OverflowError report; the bounds
        # saturate to inf
        code, report = run_json(capsys, "decompose", "--graph", barbell4,
                                "--delta", "1e200", "--exact-verify")
        assert code == 0
        assert report["config"]["resistance_target"] == "inf"
        assert report["results"]["verification"]["rdiam_bound"] == "inf"

    def test_delta_guard_reported(self, capsys, barbell4):
        code, report = run_json(capsys, "decompose", "--graph", barbell4, "--delta", "3.9")
        assert code == 2
        assert "delta^2 >= 4/epsilon" in report["error"]["message"]

    @pytest.mark.parametrize("flags", [("--delta", "nan")], ids=["delta"])
    def test_nan_setting_reported(self, capsys, tmp_path, flags):
        graph = tmp_path / "g6.txt"
        rd.write_edgelist(rd.grid2d(6), graph)
        code, report = run_json(capsys, "decompose", "--graph", str(graph), *flags)
        assert code == 2
        assert report["error"]["type"] == "ValueError"
        assert "results" not in report

    @pytest.mark.parametrize("flags", [("--delta", "0"), ("--delta", "-1"), ("--delta", "nan")],
                             ids=["zero", "negative", "nan"])
    def test_verify_rejects_non_positive_setting(self, capsys, tmp_path, flags):
        graph, part_file = tmp_path / "g6.txt", tmp_path / "part.json"
        rd.write_edgelist(rd.grid2d(6), graph)
        part_file.write_text(json.dumps({"blocks": [list(range(36))]}))
        code, report = run_json(capsys, "verify", "--graph", str(graph),
                                "--partition", str(part_file), *flags)
        assert code == 2
        assert report["error"]["type"] == "ValueError"
        assert "must be positive" in report["error"]["message"]
        assert "results" not in report

    def test_verify_reports_sketch_and_solver_settings(self, capsys, barbell4, tmp_path):
        part_file = tmp_path / "part.json"
        part_file.write_text(json.dumps({"blocks": [list(range(8))]}))
        code, report = run_json(capsys, "verify", "--graph", barbell4,
                                "--partition", str(part_file), "--delta", "4",
                                "--seed", "9", "--method", "iterative", "--beta", "0.5")
        assert code == 0
        c = report["config"]
        assert (c["beta"], c["seed"], c["method"]) == (0.5, 9, "iterative")
        assert "zeta" not in c and "probes" not in c

    def test_invalid_partition_file(self, capsys, barbell4, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"blocks": [[0, 1], [1, 2, 3, 4, 5, 6, 7]]}))
        code, report = run_json(capsys, "verify", "--graph", barbell4,
                                "--partition", str(bad), "--delta", "4")
        assert code == 2
        assert "overlap" in report["error"]["message"]

    @pytest.mark.parametrize("blocks", [
        [[0, 1, 2, 3], [4, 5, 6, 7.9]],
        [[0, 1, 2, 3], "4567"],
        list(range(8)),
        [[0, 1, 2, 3], [4, 5, 6, 7], None],
    ])
    def test_malformed_block_is_computation_error(self, capsys, tmp_path, blocks):
        graph, bad = tmp_path / "h3.txt", tmp_path / "bad.json"
        rd.write_edgelist(rd.hypercube(3), graph)
        bad.write_text(json.dumps({"blocks": blocks}))
        code, report = run_json(capsys, "verify", "--graph", str(graph),
                                "--partition", str(bad), "--delta", "4")
        assert code == 2
        assert report["error"]["type"] == "ValueError"
        assert "not a sequence of integer" in report["error"]["message"]


class TestUnwritableOutput:
    def test_partition_out_is_value_error(self, capsys, barbell4, tmp_path):
        path = str(tmp_path / "missing" / "p.json")
        code, report = run_json(capsys, "decompose", "--graph", barbell4, "--delta", "4",
                                "--partition-out", path)
        assert code == 2
        assert report["error"]["type"] == "ValueError"
        assert report["error"]["message"].startswith(f"cannot write partition file {path!r}")

    def test_gen_out_is_value_error(self, capsys, tmp_path):
        path = str(tmp_path / "missing" / "g.txt")
        code, report = run_json(capsys, "gen", "--family", "hypercube", "--dim", "3",
                                "--out", path)
        assert code == 2
        assert report["error"]["type"] == "ValueError"
        assert report["error"]["message"].startswith(f"cannot write edge list {path!r}")

    def test_report_out_goes_to_stderr(self, capsys, barbell4, tmp_path):
        path = str(tmp_path / "missing" / "c.json")
        assert execute(["cut", "--graph", barbell4, "--out", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write report {path!r}")


class TestReportDiscipline:
    @pytest.mark.parametrize("command", [
        ("cut",), ("decompose", "--delta", "4"),
        ("verify", "--delta", "4", "--partition", "part.json"),
    ], ids=["cut", "decompose", "verify"])
    def test_zeta_only_on_reff(self, capsys, barbell4, command):
        # every solve of these commands derives its own accuracy
        assert execute([*command, "--graph", barbell4, "--zeta", "1e-6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --zeta 1e-6" in captured.err

    def test_byte_identical_reruns(self, capsys, barbell4):
        _, first = run(capsys, "decompose", "--graph", barbell4, "--delta", "4",
                       "--seed", "7", "--exact-verify")
        _, second = run(capsys, "decompose", "--graph", barbell4, "--delta", "4",
                        "--seed", "7", "--exact-verify")
        assert first == second

    def test_timing_opt_in(self, capsys, path3):
        _, without = run_json(capsys, "reff", "--graph", path3, "-s", "0", "-t", "2")
        assert "timing_seconds" not in without
        _, with_flag = run_json(capsys, "reff", "--graph", path3, "-s", "0", "-t", "2",
                                "--timing")
        assert with_flag["timing_seconds"] >= 0

    def test_timing_on_error_report(self, capsys, path3):
        code, report = run_json(capsys, "reff", "--graph", path3, "-s", "0", "-t", "9",
                                "--timing")
        assert code == 2
        assert "range" in report["error"]["message"]
        assert report["timing_seconds"] >= 0

    def test_module_entry_point_matches_execute(self, capsys, tmp_path):
        # `python -m resdecomp.cli` prints the report that an in-process
        # execute prints
        graph = tmp_path / "h6.txt"
        rd.write_edgelist(rd.hypercube(6), graph)
        argv = ["decompose", "--graph", str(graph), "--delta", "8", "--exact-verify"]
        env = dict(os.environ)
        src = str(Path(rd.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "resdecomp.cli", *argv],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        code, out = run(capsys, *argv)
        assert code == 0
        assert proc.stdout == out.encode()

    def test_floats_rounded_to_12_digits(self, capsys, path3):
        code, out = run(capsys, "reff", "--graph", path3, "-s", "0", "-t", "2")
        report = json.loads(out)
        # eta is an irrational-looking float; rounding must be idempotent
        eta = report["results"]["eta"]
        assert eta == float(f"{eta:.12g}")

    def test_integer_arrays_emit_the_bytes_of_the_element_walk(self, monkeypatch, capsys,
                                                               tmp_path):
        # _round_floats hands integer and bool arrays to tolist() whole; the
        # bytes must be those of the element-by-element walk it skips
        def walk(obj):
            if isinstance(obj, float):
                if not np.isfinite(obj):
                    return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
                return float(f"{obj:.12g}")
            if isinstance(obj, np.floating):
                return walk(float(obj))
            if isinstance(obj, np.integer):
                return int(obj)
            if isinstance(obj, np.ndarray):
                return [walk(x) for x in obj.tolist()]
            if isinstance(obj, dict):
                return {k: walk(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [walk(x) for x in obj]
            return obj

        reports = [{"arrays": [np.arange(-3, 5, dtype=dtype).reshape(2, 4)
                               for dtype in (np.int64, np.int32, np.int8)],
                    "unsigned": np.array([0, 255], dtype=np.uint8),
                    "flags": np.array([[True, False]]), "empty": np.zeros(0, dtype=np.int64),
                    "floats": np.array([1 / 3, np.inf, -np.inf, np.nan]),
                    "scalars": (np.int64(7), True, np.float32(0.1), 2.0 / 3)}]
        real_emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda report, path: (reports.append(report),
                                                                real_emit(report, path)))
        graph = tmp_path / "h6.txt"
        rd.write_edgelist(rd.hypercube(6), graph)
        assert execute(["decompose", "--graph", str(graph), "--delta", "8",
                        "--exact-verify"]) == 0
        capsys.readouterr()
        assert len(reports) == 2
        for report in reports:
            assert (json.dumps(cli._round_floats(report), indent=2, sort_keys=True)
                    == json.dumps(walk(report), indent=2, sort_keys=True))

    def test_usage_error_exit_code(self, capsys):
        assert execute(["reff"]) == 1
        capsys.readouterr()

    def test_unknown_command_usage_error(self, capsys):
        assert execute(["frobnicate"]) == 1
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            execute(["--version"])
        assert info.value.code == 0
        assert rd.__version__ in capsys.readouterr().out

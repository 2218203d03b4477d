"""Benchmark of resdecomp's partition and cut runs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload in this process, with BLAS pinned to one thread, checks
every operation's output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. ``--workload all`` runs every workload, untraced and traced,
each in its own process, and prints one table with the tracing overhead; it
includes ``mesh-skewed``, a known failure kept out of BENCHMARK.json.
Results, the environment and (traced) the spans go to ``.perfbench_out/``.

The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""
import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated in this many fresh processes, spread evenly over the
# untraced run so that one slow phase of the machine does not hold them all;
# setup_s is their median.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 900

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "edges_per_s": "edges/s",
    "peak_rss_mb": "MB",
    "cert_ratio": "ratio",
}
# Printed with the end-to-end metrics but not part of the result line: they
# are zero or undefined on some workloads.
END_TO_END_EXTRA = {
    "fail_frac": "ratio",
    "loss_fraction": "ratio",
    "rdiam_ratio_max": "ratio",
    "cut_score_ratio": "ratio",
}
# Means per operation, except linalg.solve_row_s (seconds per right-hand
# side), sketch.probe_bytes (the largest k x m x 8 probe matrix one sketch of
# the run draws, computed from the probe budget) and trace.op_p50_s (median
# operation time with tracing on). Counts, computed bytes and weights repeat
# exactly for a seed, so they are listed even where they read 0 (as
# decompose.pruned_weight and linalg.errors do on every listed workload). A
# time is listed only if its layer runs on every listed workload: elsewhere it
# would read exactly 0 on every run.
PER_LAYER = {
    "linalg.solve_laplacian_many.calls": "count",
    "linalg.solve_laplacian_many.rows": "count",
    "linalg.solve_laplacian_many.s": "s",
    "linalg.solve_row_s": "s/row",
    "linalg.solve_laplacian.calls": "count",
    "linalg.assemble_laplacian.calls": "count",
    "linalg.exact_resistance_diameter.calls": "count",
    "linalg.errors": "count",
    "sketch.approx_reff_from_source.calls": "count",
    "sketch.approx_reff_from_source.s": "s",
    "sketch.approx_reff_from_source.self_s": "s",
    "sketch.furthest_pair.calls.from_decompose": "count",
    "sketch.furthest_pair.calls.from_sweep": "count",
    "sketch.probe_bytes": "bytes-computed",
    "sweep.sweep_level_sets.calls": "count",
    "sweep.sweep_level_sets.entries": "count",
    "sweep.find_sparse_cut.calls": "count",
    "graph.connected_components.calls": "count",
    "graph.connected_components.s": "s",
    "graph.is_connected.calls": "count",
    "graph.induced_subgraph.calls": "count",
    "decompose.cuts": "count",
    "decompose.blocks": "count",
    "decompose.pruned_weight": "weight",
    "trace.op_p50_s": "s",
}
# Printed and written by a traced run but not part of its result line: times
# of layers that do not run on every listed workload, and sketches_per_cut,
# which is undefined where nothing is cut.
PER_LAYER_EXTRA = {
    "linalg.solve_laplacian.s": "s",
    "linalg.st_potential.s": "s",
    "linalg.exact_resistance_diameter.s": "s",
    "decompose.verify_partition.s": "s",
    "decompose.sketches_per_cut": "ratio",
    "sweep.sweep_level_sets.s": "s",
    "sweep.find_sparse_cut.self_s": "s",
    "graph.induced_subgraph.s": "s",
    "decompose.prune_low_degree.s": "s",
    "decompose.partition_with_config.self_s": "s",
    "edgelist.read_edgelist.s": "s",
    "cli.execute.self_s": "s",
}


class SetupError(Exception):
    pass


def bootstrap() -> None:
    """Pin BLAS to one thread and put this checkout's ``src/`` first on the
    import path. Must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "resdecomp" / "__init__.py").is_file():
        raise SetupError(f"no library source at {src}")
    sys.path.insert(0, str(src))
    import resdecomp
    if Path(resdecomp.__file__).resolve().parent != src / "resdecomp":
        raise SetupError(f"resdecomp was imported from {resdecomp.__file__}, not {src}")


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas_version(show_config) -> str | None:
    try:
        return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy.show_config),
        "openblas_scipy": _blas_version(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def _time_setup_in_child(args) -> float:
    """Wall time from starting a fresh process until it reports its inputs
    ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + ["--tiny"] * args.tiny
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise SetupError(f"set-up process exited with code {proc.returncode}")
    return elapsed


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:45s} {shown}")


def per_layer(records: list, spans: list) -> dict:
    """Per-operation layer figures of a traced run. Every operation of a
    pass is the same work, so counts repeat exactly for a fixed seed."""
    import harness
    import tracing
    totals = tracing.aggregate(spans)
    for rec in records:
        for key, value in rec.counts.items():
            totals[key] = totals.get(key, 0.0) + value
    ops = len(records)
    values = {name: totals.get(name, 0.0) / ops
              for name in list(PER_LAYER) + list(PER_LAYER_EXTRA)}
    rows = totals.get("linalg.solve_laplacian_many.rows", 0.0)
    values["linalg.solve_row_s"] = (totals.get("linalg.solve_laplacian_many.s", 0.0) / rows
                                    if rows else 0.0)
    values["sketch.probe_bytes"] = totals.get("sketch.approx_reff_from_source.probe_bytes", 0.0)
    cuts = totals.get("decompose.cuts", 0.0)
    sketches = totals.get("sketch.approx_reff_from_source.calls", 0.0)
    values["decompose.sketches_per_cut"] = sketches / cuts if cuts else None
    values["trace.op_p50_s"] = harness.op_p50(records)
    return values


def run_workload(args) -> int:
    import harness
    import tracing
    workload = harness.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    instances = workload.make_inputs(args.seed, args.tiny, OUT_DIR)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = None
    setup_samples = []

    def sample_setup(elapsed):
        while (len(setup_samples) < SETUP_SAMPLES
               and elapsed >= len(setup_samples) * args.seconds / SETUP_SAMPLES):
            setup_samples.append(_time_setup_in_child(args))

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        records = harness.run_timed(workload, instances, args.seconds, tracer,
                                    None if args.trace else sample_setup)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
        "inputs": [{"label": i.label, "n": i.graph.n, "m": i.graph.m, "seed": i.seed}
                   for i in instances],
        "ops": [vars(r) for r in records],
    }
    failed = sum(not r.ok for r in records)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(records)} operations, {failed} failed")
    print(f"environment: {json.dumps(result['environment'])}")
    for rec in records:
        if not rec.ok:
            print(f"  op {rec.op} ({rec.instance}) failed: {rec.error or rec.problems}")
    stem = OUT_DIR / f"{workload.name}{'-tiny' * args.tiny}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values = per_layer(records, tracer.spans)
        tracer.write(stem.with_suffix(".spans.jsonl"))
        _print_metrics(f"per-layer metrics, per operation (N={len(records)}):",
                       values, {**PER_LAYER, **PER_LAYER_EXTRA})
        metrics = _metric_block(values, PER_LAYER)
    else:
        values = harness.end_to_end(records)
        values["peak_rss_mb"] = peak_rss_mb
        sample_setup(math.inf)
        result["setup_samples_s"] = setup_samples
        values["setup_s"] = statistics.median(setup_samples)
        _print_metrics(f"end-to-end metrics (N={len(records)} operations):",
                       values, {**END_TO_END, **END_TO_END_EXTRA})
        metrics = _metric_block(values, END_TO_END)
    result["values"] = values
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps({"correct": not any(r.problems for r in records),
                      "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced, and one
    table of every metric with the tracing overhead."""
    import harness
    rows = []
    for name in harness.WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + ["--tiny"] * args.tiny
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            runs[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            print(proc.stdout)
        stem = OUT_DIR / f"{name}{'-tiny' * args.tiny}-seed{args.seed}-trace0.json"
        untraced = json.loads(stem.read_text())["values"]
        traced = runs[1]["metrics"]["trace.op_p50_s"]["value"]
        rows.append((name, runs[0], untraced, traced - untraced["op_p50_s"]))
    print("summary (end-to-end, untraced; overhead = traced minus untraced op_p50_s):")
    for name, result, values, overhead in rows:
        _print_metrics(f"{name}: N={result['attempted']} failed={result['failed']} "
                       f"correct={result['correct']} trace overhead {overhead:+.4f} s "
                       f"({overhead / values['op_p50_s']:+.1%})",
                       values, {**END_TO_END, **END_TO_END_EXTRA})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for every workload in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true",
                        help="inputs at the self-test's tiny sizes, for checking the harness")
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness
    if args.workload == "all":
        return run_all(args)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end emitting deterministic JSON reports.

Subcommands: ``gen`` (write a synthetic graph as an edge list), ``reff``
(pair resistance query), ``cut`` (sparse level cut), ``decompose``
(recursive partitioning), ``verify`` (recheck a partition file).

Every command prints one JSON report. Floats are rounded to 12 significant
digits and keys sorted, so identical inputs and seeds reproduce reports
byte for byte. Wall-clock timing is opt-in (``--timing``) for that reason.
"""
import os as _os

# Cap BLAS pools before numpy loads them; only effective when this module
# is the process entry point, which the console script guarantees.
_threads = (_os.environ.get("RESDECOMP_THREADS") or "").strip()
if _threads and _threads != "0":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .decompose import (C_LOSS, C_RES, DecompositionConfig,
                        partition_with_config, verify_partition)
from .edgelist import read_edgelist, write_edgelist
from .generators import _FAMILIES, generate
from .graph import WeightedGraph
from .linalg import SolverOptions, exact_reff, st_potential
from .sketch import DEFAULT_BETA, SketchConfig
from .sweep import find_sparse_cut

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _round_floats(obj):
    """12-significant-digit rounding; non-finite values become strings."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round_floats(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(x) for x in obj]
    return obj


def _digest(g: WeightedGraph, path: str | None) -> dict:
    return {
        "path": path,
        "n": g.n,
        "m": g.m,
        "total_weight": g.total_weight,
        "min_weight": g.min_weight() if g.m else None,
        "max_weight": float(g.edge_w.max()) if g.m else None,
    }


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(_round_floats(report), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sketch_config(args) -> SketchConfig:
    return SketchConfig(beta=args.beta, seed=args.seed, probe_count=args.probes)


def _solver_options(args) -> SolverOptions:
    return SolverOptions(zeta=args.zeta, method=args.method)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for randomized internals")
    p.add_argument("--beta", type=float, default=DEFAULT_BETA,
                   help="multiplicative sketch tolerance (default ln(3/2))")
    p.add_argument("--probes", type=int, default=None,
                   help="override the automatic probe count")
    p.add_argument("--zeta", type=float, default=1e-8,
                   help="relative solve tolerance in the energy norm")
    p.add_argument("--method", choices=("auto", "dense", "iterative"), default="auto",
                   help="linear solver selection")


def _build_parser() -> _Parser:
    parser = _Parser(prog="resdecomp",
                     description="effective-resistance cuts and decompositions")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic graph")
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p.add_argument("--dim", type=int, help="hypercube dimension")
    p.add_argument("--side", type=int, help="grid side length")
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--degree", type=int, help="regular degree")
    p.add_argument("--clique-size", type=int, dest="clique_size", help="barbell clique size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="edge-list destination path")
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("reff", help="effective resistance between two vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("-s", "--source", dest="s", type=int, required=True)
    p.add_argument("-t", "--sink", dest="t", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="force the dense oracle")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--timing", action="store_true")
    _add_solver_flags(p)

    p = sub.add_parser("cut", help="find a sparse level cut")
    p.add_argument("--graph", required=True)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--out", default=None)
    p.add_argument("--timing", action="store_true")
    _add_solver_flags(p)

    p = sub.add_parser("decompose", help="partition into bounded-resistance blocks")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c-r", type=float, dest="c_r", default=1.0,
                   help="resistance-target constant")
    p.add_argument("--exact-verify", action="store_true", dest="exact_verify",
                   help="append an independent verification record")
    p.add_argument("--out", default=None)
    p.add_argument("--partition-out", dest="partition_out", default=None,
                   help="also write the blocks as a partition JSON file")
    p.add_argument("--timing", action="store_true")
    _add_solver_flags(p)

    p = sub.add_parser("verify", help="recheck a partition file")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True, help="JSON file {\"blocks\": [[ids...], ...]}")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c-r", type=float, dest="c_r", default=1.0)
    p.add_argument("--out", default=None)
    p.add_argument("--timing", action="store_true")
    _add_solver_flags(p)
    return parser


def _load_graph(path: str) -> WeightedGraph:
    try:
        return read_edgelist(path)
    except OSError as exc:
        raise ValueError(f"cannot read graph file {path!r}: {exc}") from exc


def _load_partition(path: str) -> list[list[int]]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read partition file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"partition file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "blocks" not in data or not isinstance(data["blocks"], list):
        raise ValueError(f"partition file {path!r} must contain a top-level 'blocks' list")
    return data["blocks"]


def _stats_payload(stats) -> dict:
    return {
        "subset": stats.subset,
        "size": int(stats.subset.size),
        "boundary_weight": stats.boundary_weight,
        "volume": stats.volume,
        "conductance": stats.conductance,
    }


def _verification_payload(rec) -> dict:
    return {
        "cut_weight": rec.cut_weight,
        "loss_fraction": rec.loss_fraction,
        "loss_bound": rec.loss_bound,
        "loss_ok": rec.loss_ok,
        "block_rdiams": [{"value": r.value, "certified_exact": r.certified_exact}
                         for r in rec.block_rdiams],
        "rdiam_bound": rec.rdiam_bound,
        "rdiam_ok": rec.rdiam_ok,
        "resistance_target": rec.resistance_target,
        "passed": rec.passed,
    }


def _cmd_gen(args) -> dict:
    _, wanted = _FAMILIES[args.family]
    params = {k: getattr(args, k) for k in wanted if getattr(args, k) is not None}
    g = generate(args.family, **params)
    write_edgelist(g, args.out)
    return {
        "input": _digest(g, args.out),
        "config": {"family": args.family, **params},
        "results": {"written": args.out, "n": g.n, "m": g.m},
    }


def _cmd_reff(args) -> dict:
    g = _load_graph(args.graph)
    if args.exact:
        value = exact_reff(g, args.s, args.t)
        results = {"reff": value, "method": "exact"}
    else:
        pot = st_potential(g, args.s, args.t, _solver_options(args))
        results = {"reff": float(pot.values[args.s] - pot.values[args.t]),
                   "method": "potential", "eta": pot.eta}
    return {
        "input": _digest(g, args.graph),
        "config": {"s": args.s, "t": args.t, "exact": args.exact,
                   "zeta": args.zeta, "method": args.method, "seed": args.seed},
        "results": results,
    }


def _cmd_cut(args) -> dict:
    g = _load_graph(args.graph)
    res = find_sparse_cut(g, args.epsilon, _sketch_config(args), _solver_options(args))
    return {
        "input": _digest(g, args.graph),
        "config": {"epsilon": args.epsilon, "beta": args.beta, "seed": args.seed,
                   "probes": args.probes, "zeta_requested": args.zeta,
                   "zeta_used": res.zeta, "eta": res.eta, "method": args.method},
        "results": {
            "cut": _stats_payload(res.stats),
            "certificate_c": res.certificate_c,
            "target_c": res.target_c,
            "source": res.source,
            "sink": res.sink,
            "reff_estimate": res.reff_estimate,
            "approx_slack": res.approx_slack,
        },
    }


def _cmd_decompose(args) -> dict:
    g = _load_graph(args.graph)
    config = DecompositionConfig.for_graph(g, args.delta, args.c_r)
    cfg = _sketch_config(args)
    opts = _solver_options(args)
    part, report = partition_with_config(g, config, cfg, opts)
    if args.partition_out:
        payload = {"blocks": [b.tolist() for b in part.blocks]}
        with open(args.partition_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    results = {
        "blocks": [b.tolist() for b in part.blocks],
        "num_blocks": len(part.blocks),
        "cut_weight": part.cut_weight,
        "loss_fraction": report.loss_fraction,
        "type_i_weight": report.type_i_weight,
        "type_ii_weight": report.type_ii_weight,
        "uncharged_cut_weight": report.uncharged_cut_weight,
        "psi_max": float(report.psi.max()) if report.psi.size else 0.0,
        "psi_weighted_sum": float((report.psi * g.edge_w).sum()) if g.m else 0.0,
        "num_sparse_cuts": report.num_sparse_cuts,
        "num_pruned_vertices": report.num_pruned_vertices,
        "per_block_rdiam": [{"value": r.value, "certified_exact": r.certified_exact}
                            for r in report.per_block_rdiam],
    }
    if args.exact_verify:
        rec = verify_partition(g, part, args.delta, c_r=args.c_r, cfg=cfg, opts=opts)
        results["verification"] = _verification_payload(rec)
    return {
        "input": _digest(g, args.graph),
        "config": {"delta": args.delta, "epsilon": config.epsilon, "c_r": args.c_r,
                   "cut_budget": config.cut_budget,
                   "resistance_target": config.resistance_target,
                   "prune_threshold": config.prune_threshold,
                   "beta": args.beta, "seed": args.seed, "probes": args.probes,
                   "zeta": args.zeta, "method": args.method,
                   "c_loss": C_LOSS, "c_res": C_RES},
        "results": results,
    }


def _cmd_verify(args) -> dict:
    g = _load_graph(args.graph)
    blocks = _load_partition(args.partition)
    rec = verify_partition(g, blocks, args.delta, c_r=args.c_r,
                           cfg=_sketch_config(args), opts=_solver_options(args))
    return {
        "input": _digest(g, args.graph),
        "config": {"delta": args.delta, "c_r": args.c_r, "partition": args.partition,
                   "c_loss": C_LOSS, "c_res": C_RES, "seed": args.seed},
        "results": _verification_payload(rec),
    }


_COMMANDS = {
    "gen": _cmd_gen,
    "reff": _cmd_reff,
    "cut": _cmd_cut,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
}


def execute(argv) -> int:
    """Run one subcommand; returns 0 on success, 1 on usage error, 2 on a
    computation error (which still emits a report with an error payload)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    started = time.monotonic()
    report = {"schema": SCHEMA_VERSION, "command": args.command}
    try:
        report.update(_COMMANDS[args.command](args))
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if getattr(args, "timing", False):
            report["timing_seconds"] = time.monotonic() - started
        _emit(report, getattr(args, "out", None) if args.command != "gen" else None)
        return 2
    if getattr(args, "timing", False):
        report["timing_seconds"] = time.monotonic() - started
    _emit(report, getattr(args, "out", None) if args.command != "gen" else None)
    return 0


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()

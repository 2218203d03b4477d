"""Command-line front end emitting deterministic JSON reports.

Subcommands: ``gen`` (write a synthetic graph as an edge list), ``reff``
(pair resistance query), ``cut`` (sparse level cut), ``decompose``
(recursive partitioning), ``verify`` (recheck a partition file).

Every command prints one JSON report. Floats are rounded to 12 significant
digits and keys sorted, so identical inputs and seeds reproduce reports
byte for byte. Wall-clock timing is opt-in (``--timing``) for that reason.
"""
import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .decompose import (C_LOSS, C_RES, DecompositionConfig, _verification_record,
                        partition_with_config, verify_partition)
from .edgelist import format_edgelist, read_edgelist
from .generators import _FAMILIES, generate
from .graph import WeightedGraph
from .linalg import (DENSE_SOLVE_LIMIT, METHODS, LaplacianSolver, _pair_component,
                     implied_potential_accuracy, st_potential)
from .sketch import DEFAULT_BETA, SketchConfig
from .sweep import DEFAULT_EPSILON, find_sparse_cut

SCHEMA_VERSION = 5


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
        # integer and bool entries pass the walk unchanged: skip it
        if obj.dtype.kind in "biu":
            return obj.tolist()
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


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {what} {path!r}: {exc}") from exc


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(_round_floats(report), indent=2, sort_keys=True) + "\n"
    if out_path:
        _write(out_path, text, "report")
    else:
        sys.stdout.write(text)


def _sketch_config(args) -> SketchConfig:
    return SketchConfig(beta=args.beta, seed=args.seed)


def _add_sketch_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for randomized internals")
    p.add_argument("--beta", type=float, default=DEFAULT_BETA,
                   help="multiplicative sketch tolerance in (0, 1] (default ln(3/2))")


def _add_method_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS, default="auto",
                   help=f"linear solver selection; auto: dense ≤ {DENSE_SOLVE_LIMIT} "
                        "vertices, else sparse LU when the fill probe allows, else PCG")


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
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--zeta", type=float, default=1e-8,
                   help="relative accuracy of the potential solve in the energy norm, "
                        "and so of the reported resistance")
    _add_method_flag(p)

    p = sub.add_parser("cut", help="find a sparse level cut")
    p.add_argument("--graph", required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--out", default=None)
    p.add_argument("--timing", action="store_true")
    _add_sketch_flags(p)
    _add_method_flag(p)

    p = sub.add_parser("decompose", help="partition into bounded-resistance blocks")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--exact-verify", action="store_true", dest="exact_verify",
                   help="append a verification record of the loss and resistance "
                        "bounds; it reuses this run's block certificates "
                        "(`resdecomp verify` re-derives them)")
    p.add_argument("--out", default=None)
    p.add_argument("--partition-out", dest="partition_out", default=None,
                   help="also write the blocks as a partition JSON file")
    p.add_argument("--timing", action="store_true")
    _add_sketch_flags(p)
    _add_method_flag(p)

    p = sub.add_parser("verify", help="recheck a partition file")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True, help="JSON file {\"blocks\": [[ids...], ...]}")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--timing", action="store_true")
    _add_sketch_flags(p)
    _add_method_flag(p)
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


def _settings_payload(args) -> dict:
    """The sketch, solver and verifier settings decompose and verify echo."""
    return {"beta": args.beta, "seed": args.seed, "method": args.method,
            "c_loss": C_LOSS, "c_res": C_RES}


def _verification_payload(rec) -> dict:
    return {**dataclasses.asdict(rec), "passed": rec.passed}


def _cmd_gen(args) -> dict:
    _, wanted = _FAMILIES[args.family]
    params = {k: getattr(args, k) for k in wanted if getattr(args, k) is not None}
    g = generate(args.family, **params)
    _write(args.out, format_edgelist(g), "edge list")
    return {
        "input": _digest(g, args.out),
        "config": {"family": args.family, **params},
        "results": {"written": args.out, "n": g.n, "m": g.m},
    }


def _cmd_reff(args) -> dict:
    if not 0 < args.zeta < 1:  # NaN fails too
        raise ValueError(f"zeta must lie in (0, 1), got {args.zeta}")
    g = _load_graph(args.graph)
    # solved on the component of s; the potential is zero at t
    sub, s, t = _pair_component(g, args.s, args.t)
    if s == t:  # no flow to route: the resistance is exactly zero
        results = {"reff": 0.0, "eta": 0.0}
    else:
        potential = st_potential(LaplacianSolver(sub, args.method), s, t, args.zeta)
        results = {"reff": float(potential[s]),
                   "eta": implied_potential_accuracy(sub, args.zeta)}
    return {
        "input": _digest(g, args.graph),
        "config": {"s": args.s, "t": args.t, "zeta": args.zeta, "method": args.method},
        "results": results,
    }


def _cmd_cut(args) -> dict:
    g = _load_graph(args.graph)
    res = find_sparse_cut(g, args.epsilon, _sketch_config(args), args.method)
    return {
        "input": _digest(g, args.graph),
        "config": {"epsilon": args.epsilon, "beta": args.beta, "seed": args.seed,
                   "zeta_used": res.zeta, "eta": res.eta, "method": args.method},
        "results": {
            "cut": {**dataclasses.asdict(res.stats), "size": res.stats.subset.size},
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
    config = DecompositionConfig.for_graph(g, args.delta)
    part, report = partition_with_config(g, config, _sketch_config(args), args.method)
    blocks = [b.tolist() for b in part.blocks]
    if args.partition_out:
        _write(args.partition_out,
               json.dumps({"blocks": blocks}, indent=2, sort_keys=True) + "\n", "partition file")
    results = {
        "blocks": blocks,
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
        "per_block_rdiam": [dataclasses.asdict(r) for r in report.per_block_rdiam],
    }
    if args.exact_verify:
        # the run certified these blocks with the verifier's settings; the
        # cover, cut weight and loss are rechecked from the input graph
        rec = _verification_record(g, part.blocks, args.delta, report.per_block_rdiam)
        results["verification"] = _verification_payload(rec)
    return {
        "input": _digest(g, args.graph),
        "config": {"delta": args.delta, "epsilon": DEFAULT_EPSILON,
                   "cut_budget": config.cut_budget,
                   "resistance_target": config.resistance_target,
                   "prune_threshold": config.prune_threshold, **_settings_payload(args)},
        "results": results,
    }


def _cmd_verify(args) -> dict:
    g = _load_graph(args.graph)
    blocks = _load_partition(args.partition)
    rec = verify_partition(g, blocks, args.delta, cfg=_sketch_config(args), method=args.method)
    return {
        "input": _digest(g, args.graph),
        "config": {"delta": args.delta, "partition": args.partition,
                   **_settings_payload(args)},
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
    computation error, running out of memory included (which still emits a
    report with an error payload), or when the report's --out cannot be
    written (reported on stderr)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    started = time.monotonic()
    report = {"schema": SCHEMA_VERSION, "command": args.command}
    code = 0
    try:
        report.update(_COMMANDS[args.command](args))
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 2
    if args.timing:
        report["timing_seconds"] = time.monotonic() - started
    # gen's --out is the edge list; its report goes to stdout
    try:
        _emit(report, args.out if args.command != "gen" else None)
    except ValueError as exc:  # the report's own --out cannot be written
        print(exc, file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()

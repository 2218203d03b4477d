"""Edge-list text I/O.

Format: one edge per line, ``u v w`` whitespace-separated with 0-based
integer ids and a decimal weight. Lines starting with ``#`` are comments.
An optional first non-comment line ``n <count>`` fixes the vertex count;
without it, n = 1 + max vertex id seen.
"""
from __future__ import annotations

import math
import os

from .graph import WeightedGraph, build_graph


class EdgeListFormatError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_edgelist(text: str) -> WeightedGraph:
    n_declared = None
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if edges or n_declared is not None:
                raise EdgeListFormatError(lineno, "header 'n <count>' must appear once, before any edge")
            if len(tokens) != 2:
                raise EdgeListFormatError(lineno, f"expected 'n <count>', got {line!r}")
            try:
                n_declared = int(tokens[1])
            except ValueError:
                raise EdgeListFormatError(lineno, f"vertex count is not an integer: {tokens[1]!r}") from None
            if n_declared < 0:
                raise EdgeListFormatError(lineno, f"vertex count must be non-negative, got {n_declared}")
            continue
        if len(tokens) != 3:
            raise EdgeListFormatError(lineno, f"expected 'u v w', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
            w = float(tokens[2])
        except ValueError:
            raise EdgeListFormatError(lineno, f"could not parse edge {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListFormatError(lineno, f"negative vertex id in {line!r}")
        if not (0 < w < math.inf):
            raise EdgeListFormatError(lineno, f"weight must be positive and finite, got {tokens[2]}")
        max_id = max(max_id, u, v)
        edges.append((u, v, w))
    n = n_declared if n_declared is not None else max_id + 1
    if max_id >= n:
        raise ValueError(f"edge references vertex {max_id} but header declares n={n}")
    return build_graph(n, edges)


def read_edgelist(path: str | os.PathLike) -> WeightedGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_edgelist(fh.read())


def format_edgelist(g: WeightedGraph) -> str:
    """Serialize; weights use shortest round-trip repr so a parse restores
    the exact floats. A header line is emitted only when the vertex count
    cannot be inferred from the edges."""
    lines = []
    eu, ev, ew = g.edges()
    inferred = int(ev.max() + 1) if g.m else 0
    if inferred != g.n:
        lines.append(f"n {g.n}")
    for u, v, w in zip(eu, ev, ew):
        lines.append(f"{int(u)} {int(v)} {float(w)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_edgelist(g: WeightedGraph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edgelist(g))

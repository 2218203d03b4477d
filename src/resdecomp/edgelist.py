"""Edge-list text I/O.

Grammar, read in one numpy pass:

- Lines end at ``\\n``. A ``\\r`` before it is whitespace, so CRLF text reads
  the same; no other character ends a line.
- A blank line, or one whose first non-blank character is ``#``, is
  skipped. There are no inline comments: ``#`` after an edge is an error.
- The first other line may be the header ``n <count>``, which fixes the
  vertex count; without it, n = 1 + max vertex id seen (0 with no edges).
- Every other line is an edge ``u v w``: three whitespace-separated
  tokens. The ids are integers (an optional sign and the digits 0-9),
  non-negative and below n; the weight is a decimal float, positive and
  finite.

A malformed line raises :class:`EdgeListFormatError` naming it.
"""
from __future__ import annotations

import math
import os
import re

import numpy as np

from .graph import WeightedGraph, _merge_edges


class EdgeListFormatError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# a comment line with the newline before it, which it keeps
_COMMENT_LINE = re.compile(r"\n[^\S\n]*#[^\n]*")
_CONTENT = re.compile(r"\S")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_EDGE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _edge_columns(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The id and weight columns of the edge ``lines``, blank ones skipped;
    ValueError if a line is not three numbers of the grammar."""
    # loadtxt warns on lines without data
    rows = (np.loadtxt(lines, dtype=_EDGE, comments=None, ndmin=1) if any(map(str.strip, lines))
            else np.empty(0, dtype=_EDGE))
    return rows["u"], rows["v"], rows["w"]


def _value_checks(u, v, w, n: int | None):
    """(rows passing, message) for each value check, in the order a line's
    error names them; no upper id bound without a header."""
    yield (u >= 0) & (v >= 0), "negative vertex id in {line!r}"
    yield (w > 0) & (w < math.inf), "weight must be positive and finite, got {weight}"
    if n is not None:
        yield (u < n) & (v < n), "edge references vertex {top} but header declares n={n}"


def _checked_columns(lines: list[str], n: int | None):
    """The columns of the edge ``lines``, or None if a line is malformed."""
    try:
        columns = _edge_columns(lines)
    except ValueError:
        return None
    return columns if all(ok.all() for ok, _ in _value_checks(*columns, n)) else None


def _line_error(lineno: int, line: str, n: int | None) -> EdgeListFormatError:
    """What is wrong with the malformed edge ``line``."""
    line = line.strip()
    tokens = line.split()
    if tokens[:1] == ["n"]:
        message = "header 'n <count>' must appear once, before any edge"
    elif len(tokens) != 3:
        message = f"expected 'u v w', got {line!r}"
    else:
        try:
            (u,), (v,), (w,) = _edge_columns([line])
        except ValueError:
            message = f"could not parse edge {line!r}"
        else:
            message = next(text for ok, text in _value_checks(u, v, w, n) if not ok).format(
                line=line, weight=tokens[2], top=max(u, v), n=n)
    return EdgeListFormatError(lineno, message)


def _header_count(lineno: int, line: str) -> int:
    tokens = line.split()
    if len(tokens) != 2:
        raise EdgeListFormatError(lineno, f"expected 'n <count>', got {line.strip()!r}")
    if not _INTEGER.fullmatch(tokens[1]):
        raise EdgeListFormatError(lineno, f"vertex count is not an integer: {tokens[1]!r}")
    n = int(tokens[1])
    if n < 0:
        raise EdgeListFormatError(lineno, f"vertex count must be non-negative, got {n}")
    return n


def parse_edgelist(text: str) -> WeightedGraph:
    # with a newline put in front, comment lines blank to "" and line i of
    # the text is lines[i]
    text = _COMMENT_LINE.sub("\n", "\n" + text)
    lines = text.split("\n")
    n, start = None, 0
    first = _CONTENT.search(text)
    if first:
        lineno = text.count("\n", 0, first.start())
        if lines[lineno].split()[0] == "n":
            n, start = _header_count(lineno, lines[lineno]), lineno + 1
    columns = _checked_columns(lines[start:], n)
    if columns is None:
        # the first malformed line, by bisection: [lo, hi) holds it
        lo, hi = start, len(lines)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _checked_columns(lines[lo:mid], n) is not None else (lo, mid)
        raise _line_error(lo, lines[lo], n)
    u, v, w = columns
    if n is None:
        n = int(max(u.max(), v.max())) + 1 if u.size else 0
    return _merge_edges(n, u, v, w)


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

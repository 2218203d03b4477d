"""Spans around the library's public functions, recorded from outside it.

The tracer wraps every public function defined in the library's layer
modules and patches the wrapper into each module that holds the function:
its defining module, every module that imported it with ``from ... import``,
and the package namespace. A span records its name, the module whose name
the caller used (``site``), start, end, parent span and operation id. Spans
stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "resdecomp"
LAYERS = ("graph", "edgelist", "linalg", "sketch", "sweep", "decompose", "cli")


def _rows(args, kwargs, result):
    return {"rows": len(args[1] if len(args) > 1 else kwargs["B"])}


def _entries(args, kwargs, result):
    return {"entries": len(result)}


def _probe_bytes(args, kwargs, result):
    # Bytes of the dense k x m float64 probe matrix the sketch draws, computed
    # from the graph and the probe budget rather than measured.
    sketch = sys.modules[f"{PACKAGE}.sketch"]
    g = args[0]
    cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or sketch.SketchConfig()
    return {"probe_bytes": 8 * sketch._num_probes(cfg, g.n) * g.m}


# Span attributes taken from a call's arguments or result, by span name.
_ATTRS = {
    "linalg.solve_laplacian_many": _rows,
    "sweep.sweep_level_sets": _entries,
    "sketch.approx_reff_from_source": _probe_bytes,
}

# Attributes whose largest value, not their sum, is what the run needs.
PEAK_ATTRS = {"probe_bytes"}


@dataclass(frozen=True)
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int
    op: int
    attrs: dict | None
    error: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while an operation is open; install() patches the
    library and uninstall() restores it."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        holders = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in holders:
            site = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[1] is obj:
                    setattr(module, attr, self._wrap(hit[0], site, obj))
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def operation(self, op_id: int):
        """Open the root span of one operation; spans are recorded only
        inside it."""
        self._op = op_id
        try:
            with self._span("op", "perfbench", None):
                yield
        finally:
            self._op = None

    @contextmanager
    def _span(self, name, site, attrs_of, call=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        error = None
        outcome = {}
        start = time.perf_counter()
        try:
            yield outcome
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            attrs = None
            if attrs_of is not None and error is None:
                try:
                    attrs = attrs_of(*call, outcome.get("result"))
                except (LookupError, TypeError, AttributeError):
                    # the library changed the call's signature; keep the span
                    attrs = None
            self.spans[idx] = Span(name, site, start, end, parent, self._op, attrs, error)

    def _wrap(self, name: str, site: str, fn):
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            with self._span(name, site, attrs_of, (args, kwargs)) as outcome:
                outcome["result"] = fn(*args, **kwargs)
            return outcome["result"]

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "site": s.site, "op": s.op, "parent": s.parent,
                    "start": s.start - origin, "end": s.end - origin,
                    "attrs": s.attrs, "error": s.error}) + "\n")


def aggregate(spans: list[Span]) -> dict[str, float]:
    """Totals over the spans: ``<name>.calls``, ``<name>.s`` (wall time),
    ``<name>.self_s`` (wall time minus the part its child spans cover),
    ``<name>.calls.from_<site>``, span attributes (summed, or the largest
    value for those in PEAK_ATTRS), and
    ``<layer>.errors``, the failures that arose in that layer rather than
    passed through it."""
    child_cover = [0.0] * len(spans)
    errored_parents = set()
    for s in spans:
        if s.parent >= 0:
            child_cover[s.parent] += s.seconds
            if s.error is not None:
                errored_parents.add(s.parent)
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    def peak(key, value):
        totals[key] = max(totals.get(key, 0.0), value)

    for i, s in enumerate(spans):
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.calls.from_{s.site}", 1)
        add(f"{s.name}.s", s.seconds)
        add(f"{s.name}.self_s", s.seconds - child_cover[i])
        for key, value in (s.attrs or {}).items():
            (peak if key in PEAK_ATTRS else add)(f"{s.name}.{key}", value)
        if s.error is not None and i not in errored_parents:
            add(f"{s.name.partition('.')[0]}.errors", 1)
    return totals

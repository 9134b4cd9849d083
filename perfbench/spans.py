"""Span tracing of hkcone from outside the package.

`install` wraps every public function of the nine layer modules, and
every public method of the classes they define, and rebinds each
wrapper wherever the original is bound inside the package (a module's
globals, the package namespace, or a class).  Internal calls such as
`render` calling its imported `enumerate_wall_classes`, or `mat_vec`
calling `dot`, therefore pass through the wrappers too.  A wrapper
returns what the original returns and lets its exceptions through
untouched.

Each call records one span: name, op id, start, end and the index of
its parent span.  Spans live in flat arrays until the run ends; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

LAYERS = ("cli", "cone", "lattice", "mbm", "linalg", "render", "mukai",
          "symplectic", "torus")

# Public elimination routines of linalg, reported one by one.
LINALG_ELIMINATION = ("rank", "determinant", "invert", "solve", "nullspace",
                      "smith_normal_form", "congruence_diagonalize")

MUKAI_FUNCTIONS = ("make_point", "flop", "flop_dual", "check_diagram")

# Per-layer metric -> (end-to-end metrics it should move, workloads).
# Written into every traced result file next to the numbers.
LAYER_MAP = {
    "<layer>.calls, <layer>.self_s": ("-", "all"),
    "linalg.<fn>.calls, linalg.<fn>.self_s": ("run_s, op_p50_ms", "local-models"),
    "cone.enumerate.self_s, cone.enumerate.walls":
        ("run_s on cone-render; op_p90_ms on path-chain", "cone-render, path-chain"),
    "lattice.divisibility.calls, cone.enumerate.yield": ("run_s", "cone-render"),
    "mbm.match.calls": ("run_s", "cone-render"),
    "cone.factor_path.self_s, cone.factor_path.perturbed, cone.factor_path.steps":
        ("op_p50_ms", "path-chain"),
    "render.wall_chord.calls, render.wall_chord.self_s, render.render_svg.self_s, "
    "render.svg_bytes": ("run_s", "cone-render"),
    "symplectic.is_coisotropic.self_s, mukai.<fn>.self_s, torus.covering_radius.self_s":
        ("run_s", "local-models"),
    "lattice.discriminant_group.calls": ("peak_rss_mb", "local-models"),
    "cli.self_s": ("run_s, op_p50_ms", "cone-render, path-chain"),
    "trace.overhead_s, bench.self_s": ("-", "-"),
}


def _public_callables(module):
    """(owner, attribute, original) for what gets wrapped."""
    out = []
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            for meth, fn in sorted(vars(obj).items()):
                if meth.startswith("_") or isinstance(fn, (property, type, staticmethod,
                                                           classmethod)):
                    continue
                if callable(fn):
                    out.append((obj, meth, fn))
        elif callable(obj):
            out.append((module, attr, obj))
    return out


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("l")
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        ops, names, parents = self.op, self.name, self.parent
        starts, ends = self.start, self.end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ops.append(tracer.current_op)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    def install(self):
        """Wrap every public callable of the layer modules in place."""
        modules = [importlib.import_module(f"hkcone.{layer}") for layer in LAYERS]
        package = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "hkcone" or key.startswith("hkcone."))]
        for layer, module in zip(LAYERS, modules):
            for owner, attr, original in _public_callables(module):
                wrapper = self.wrap(f"{layer}.{attr}", original, _OBSERVERS.get((layer, attr)))
                self._rebind(owner, attr, original, wrapper)
                if owner is module:
                    for other in package:
                        for key, value in list(vars(other).items()):
                            if value is original and other is not module:
                                self._rebind(other, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per-span self time: duration minus direct children's durations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> dict[str, dict]:
        """Calls and self seconds per span name."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name):
            entry = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own[i]
        return out

    def dump(self, path):
        """Write every span as a tab-separated line: op, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\n")


def _count_walls(tracer, walls):
    tracer.count("cone.enumerate.walls", len(walls))


def _count_path(tracer, result):
    tracer.count("cone.factor_path.steps", len(result.steps))
    tracer.count("cone.factor_path.perturbed", int(result.perturbed))


def _count_svg(tracer, doc):
    tracer.count("render.svg_bytes", len(doc.encode("utf-8")))


_OBSERVERS = {
    ("cone", "enumerate_wall_classes"): _count_walls,
    ("cone", "factor_path"): _count_path,
    ("render", "render_svg"): _count_svg,
}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_bytes"):
        return "bytes"
    return "ratio" if metric.endswith(".yield") else "count"


def layer_metrics(summary: dict[str, dict], counters: dict[str, int],
                  traced_run_s: float, untraced_run_s: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    m: dict[str, float] = {}
    accounted = 0.0
    for layer in LAYERS:
        names = [k for k in summary if k.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = sum(calls(k) for k in names)
        m[f"{layer}.self_s"] = sum(self_s(k) for k in names)
        accounted += m[f"{layer}.self_s"]
    for fn in LINALG_ELIMINATION:
        m[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        m[f"linalg.{fn}.self_s"] = self_s(f"linalg.{fn}")
    m["cone.enumerate.self_s"] = self_s("cone.enumerate_wall_classes")
    m["cone.enumerate.walls"] = counters.get("cone.enumerate.walls", 0)
    m["lattice.divisibility.calls"] = calls("lattice.divisibility")
    m["cone.enumerate.yield"] = (m["cone.enumerate.walls"] / m["lattice.divisibility.calls"]
                                 if m["lattice.divisibility.calls"] else 0.0)
    m["mbm.match.calls"] = calls("mbm.match")
    m["cone.factor_path.self_s"] = self_s("cone.factor_path")
    m["cone.factor_path.perturbed"] = counters.get("cone.factor_path.perturbed", 0)
    m["cone.factor_path.steps"] = counters.get("cone.factor_path.steps", 0)
    m["render.wall_chord.calls"] = calls("render.wall_chord")
    m["render.wall_chord.self_s"] = self_s("render.wall_chord")
    m["render.render_svg.self_s"] = self_s("render.render_svg")
    m["render.svg_bytes"] = counters.get("render.svg_bytes", 0)
    m["symplectic.is_coisotropic.self_s"] = self_s("symplectic.is_coisotropic")
    for fn in MUKAI_FUNCTIONS:
        m[f"mukai.{fn}.self_s"] = self_s(f"mukai.{fn}")
    m["torus.covering_radius.self_s"] = self_s("torus.covering_radius")
    m["lattice.discriminant_group.calls"] = calls("lattice.discriminant_group")
    m["trace.run_s"] = traced_run_s
    m["trace.overhead_s"] = traced_run_s - untraced_run_s
    m["bench.self_s"] = traced_run_s - accounted
    return m

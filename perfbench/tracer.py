"""In-memory spans around fjopinion's layer boundaries, and their summaries.

Spans are recorded by wrapping public functions at the module attribute
through which their callers look them up (``fjopinion.metrics.solve`` is the
name ``approxim`` calls, ``fjopinion.solver.solve`` is not).  Nothing is
wrapped until ``Tracer.install`` runs, so an untraced run executes the
program's own functions unchanged.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module, attribute looked up by the caller, span name, attrs extractor).
# One span name may sit at several import sites; a site that no longer
# exists is skipped and its layer reported as not observed.
SITES = [
    ("fjopinion.cli", "main", "cli.main", None),
    ("fjopinion.cli", "load_edge_list", "graph.load_edge_list", None),
    ("fjopinion.cli", "load_node_values", "graph.load_node_values", None),
    ("fjopinion.cli", "approxim", "metrics.approxim", "report"),
    ("fjopinion.cli", "metrics_exact", "metrics.metrics_exact", "report"),
    ("fjopinion.cli", "spectral_radius", "dynamics.spectral_radius", "spectral"),
    ("fjopinion.cli", "simulate_until", "dynamics.simulate_until", "simulation"),
    ("fjopinion.graph", "build_graph", "graph.build_graph", None),
    ("fjopinion.generate", "build_graph", "graph.build_graph", None),
    ("fjopinion.generate", "random_regular_graph", "generate.random_regular_graph", None),
    ("fjopinion.metrics", "approxim", "metrics.approxim", "report"),
    ("fjopinion.metrics", "metrics_exact", "metrics.metrics_exact", "report"),
    ("fjopinion.metrics", "operator_matrix", "graph.operator_matrix", "keep"),
    ("fjopinion.metrics", "solve", "solver.solve", "solver"),
    ("fjopinion.metrics", "equilibrium", "dynamics.equilibrium", None),
    ("fjopinion.dynamics", "operator_matrix", "graph.operator_matrix", "keep"),
    ("fjopinion.dynamics", "solve", "solver.solve", "solver"),
    ("fjopinion.dynamics", "equilibrium", "dynamics.equilibrium", None),
    ("fjopinion.dynamics", "spectral_radius", "dynamics.spectral_radius", "spectral"),
    ("fjopinion.dynamics", "simulate_until", "dynamics.simulate_until", "simulation"),
]


def _report_attrs(r):
    return {"certified": bool(r.certified), "centered": bool(r.centered),
            "norms_s": float(r.norms_seconds)}


def _solver_attrs(r):
    return {"iterations": int(r.iterations), "certified": bool(r.certified)}


def _spectral_attrs(r):
    return {"iterations": int(r.iterations), "converged": bool(r.converged)}


def _simulation_attrs(r):
    return {"steps": int(r[0].t)}


ATTRS = {
    "report": _report_attrs,
    "solver": _solver_attrs,
    "spectral": _spectral_attrs,
    "simulation": _simulation_attrs,
}


class Tracer:
    """Records spans (name, start, end, parent, op id, attrs) in memory."""

    def __init__(self):
        self.spans = []
        self.op = "none"
        self.kept = {}
        self._stack = []
        self._originals = []
        self.sites_missing = []

    def _wrap(self, fn, name, kind):
        extract = ATTRS.get(kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                    "op": self.op, "attrs": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                span["attrs"] = extract(result)
            elif kind == "keep":
                self.kept[name] = result
            return result

        return wrapper

    def install(self):
        self.sites_missing = []
        for module_name, attr, name, kind in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.sites_missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, kind))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals = []


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def per_op_median(spans, name, amount):
    """Median over ops (or set-ups) of ``amount(index, span)`` summed per op.

    Only the ops in which the layer ran count; None if it never ran.
    """
    per_op = {}
    for i, s in enumerate(spans):
        if s["name"] == name:
            per_op[s["op"]] = per_op.get(s["op"], 0.0) + amount(i, s)
    return statistics.median(per_op.values()) if per_op else None


def layer_attrs(spans, name, key):
    """Every recorded value of one attribute of one layer's spans."""
    return [s["attrs"][key] for s in spans if s["name"] == name and key in s["attrs"]]

"""Spans around the calls into each p3poly layer, recorded from outside the package.

A span is (name, start, end, parent span, op id).  Spans stay in memory and
are written out once, when the run ends.  A wrapper replaces a function
everywhere its callers look it up: in its own module (so calls inside the
module, such as ``normalized_score`` calling ``project``, are seen) and in
every other loaded p3poly module that bound it with a ``from`` import (as
``cli`` does for the ``strategies`` functions).
"""

from __future__ import annotations

import functools
import json
import sys
from importlib import import_module
from time import perf_counter

# The layers are the package's modules; these are their public functions.
LAYERS = {
    "strategies": (
        "enumerate_strategies", "vertex_rows", "vertices_csv", "vertices_json",
        "hamming_histogram",
    ),
    "geometry": (
        "build_visibility_graph", "all_pairs_shortest_paths", "minimum_generators",
        "has_dominating_set", "maximal_convex_clusters", "classify_from",
    ),
    "quantum": (
        "behaviour_from_state", "collapse", "sample_behaviour", "no_signalling_check",
        "behaviour_bound_check", "trace_distance", "fidelity", "lhv_evaluate",
        "random_density_matrix",
    ),
    "manifold": ("project", "normalized_score"),
    "stats": ("gaussian_separability", "two_sample_t", "two_sample_ks"),
}
CLI_VERBS = ("vertices", "graph", "analyze", "simulate", "project", "test", "bound")
SPAN_NAMES = tuple(f"{m}.{f}" for m, names in LAYERS.items() for f in names) + tuple(
    f"cli.main.{verb}" for verb in CLI_VERBS
)
PROJECT = "manifold.project"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, op id, covered by children].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = None
        self.projections: list[tuple[bool, int]] = []

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.op_id, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent][5] += record[2] - record[1]
        if name == PROJECT:
            self.projections.append((bool(result.converged), int(result.iterations)))
        return result

    def install(self) -> None:
        """Replace every layer function, wherever a p3poly module has bound it."""
        modules = [m for n, m in sys.modules.items() if n == "p3poly" or n.startswith("p3poly.")]
        for module_name, names in LAYERS.items():
            home = import_module(f"p3poly.{module_name}")
            for fname in names:
                original = getattr(home, fname)
                traced = self._wrap(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """calls, total_ms and self_ms per span name, plus the solver's health."""
        totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for name, start, end, _, _, covered in self.spans:
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        metrics = {}
        for name in SPAN_NAMES:
            calls, total, own = totals[name]
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.total_ms"] = total * 1e3
            metrics[f"{name}.self_ms"] = own * 1e3
        count = len(self.projections)
        metrics[f"{PROJECT}.converged_ratio"] = (
            sum(c for c, _ in self.projections) / count if count else 0.0
        )
        metrics[f"{PROJECT}.iterations_mean"] = (
            sum(i for _, i in self.projections) / count if count else 0.0
        )
        return metrics

    def dump(self, path) -> None:
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w") as handle:
            json.dump([dict(zip(fields, span[:5])) for span in self.spans], handle)

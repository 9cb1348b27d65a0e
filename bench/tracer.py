"""Span tracing of trilag's public functions, installed from outside the package.

Each wrapped function records one span (name, start, end, parent) per call.
Modules import these names directly (``harness`` binds ``build_cf``,
``lagrangian`` binds ``build_bf``, ``certify`` binds ``bernstein_min``), so
patching only the defining module would miss most calls: ``install`` rebinds
every attribute of every loaded ``trilag`` module that is the original
function object, and patches methods on their class.  A listed function
that no longer exists is reported as missing, never as an error, so the
untraced benchmark survives code deletions.

Spans live in flat arrays in memory and are written out once, at the end.
A span's self time is its duration minus the durations of its direct
children; self times along a top-level span therefore sum to its duration.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

# layer -> wrapped public functions (``Class.method`` for methods)
LAYERS = {
    "polynomials": ["bernstein_min", "interval_box_bounds", "h_polynomial", "Poly3.evaluate"],
    "certify": [
        "certify",
        "bernstein_lower_bound",
        "interval_lower_bound",
        "check_point_exact",
        "default_equality_candidates",
    ],
    "graphs": [
        "build_f",
        "build_cf",
        "build_bf",
        "underlying",
        "has_induced_directed_c4",
        "has_independent_4set",
    ],
    "lagrangian": ["lagrangian_cf", "lagrangian_bf"],
    "reduction": ["neighbor_sums", "merge", "reduce_to_complete"],
    "simplex": [
        "maximize",
        "project_to_simplex",
        "gradient",
        "closed_form",
        "trivariate_g",
        "majorization_bound_check",
    ],
    "harness": [
        "orientation_from_index",
        "enumerate_orientations",
        "validate_fdf_family",
        "pipeline_report",
    ],
    "fileio": ["parse_graph", "parse_weights"],
    "cli": ["main"],
}

FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _loaded_trilag_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "trilag" or name.startswith("trilag."))
    ]


class Tracer:
    """Wraps the functions in ``LAYERS`` while installed and records their spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.restarts = 0  # summed over ``simplex.maximize`` calls
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        # the base of simplex.steps_per_restart
        signature = inspect.signature(fn) if qualname == "simplex.maximize" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.restarts += int(bound.arguments.get("restarts", 0))
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = _loaded_trilag_modules()
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"trilag.{layer}")
            for fn_name in fns:
                qualname = f"{layer}.{fn_name}"
                owner_name, _, attr = fn_name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.missing.append(qualname)
                    continue
                wrapper = self._wrap(qualname, original)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per-function calls and self seconds, plus total self and top-level time."""
        n = len(self.span_start)
        child = [0.0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = {name: 0 for name in FUNCTIONS}
        self_s = {name: 0.0 for name in FUNCTIONS}
        top_s = 0.0
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = ends[i] - starts[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            if parents[i] < 0:
                top_s += dur
        return {
            "calls": calls,
            "self_s": self_s,
            "self_sum_s": sum(self_s.values()),
            "top_span_s": top_s,
            "spans": n,
        }

    def write_spans(self, path) -> None:
        """Write spans as gzipped CSV: name, start, end, parent (start/end relative)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i] - t0:.9f},"
                    f"{self.span_end[i] - t0:.9f},{self.span_parent[i]}\n"
                )

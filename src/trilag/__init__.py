"""Exact-arithmetic toolkit for 3-graph Lagrangian bounds.

Constructions and checkers (graphs), the exact chain on integers --
Lagrangians, symmetrization merges, the closed form and g, and the whole
chain on one instance (lagrangian) -- simplex maximization of the
complete graph closed form (simplex), and an exact simplex Bernstein
positivity certificate for the final trivariate inequality (certify).

numpy is imported only by the float optimizer (simplex) and the sweeps
(harness).  Their names below resolve through the module __getattr__
(PEP 562), which imports the module on first use, so ``import trilag``
and the exact modules load no numpy.
"""

import importlib

from .graphs import (
    OrientedGraph,
    UndirectedGraph,
    build_f,
    build_cf,
    build_bf,
    underlying,
    edge_density,
    has_induced_directed_c4,
    complete_graph,
)
from .lagrangian import (
    WeightVector,
    lagrangian_cf,
    lagrangian_bf,
    uniform_weights,
    merge_chain,
    pipeline_report,
)
from .polynomials import Poly, g_polynomial, h_polynomial, simplex_bernstein
from .certify import certify
from .fileio import ParseError, parse_graph, parse_weights

__version__ = "0.1.0"

# name -> the numpy-backed module that defines it, imported on first use
_LAZY = {
    **dict.fromkeys(("closed_form", "gradient", "maximize", "project_to_simplex"), "simplex"),
    **dict.fromkeys(("enumerate_orientations", "validate_fdf_family"), "harness"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value

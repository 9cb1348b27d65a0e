"""Exact-arithmetic toolkit for 3-graph Lagrangian bounds.

Constructions and checkers (graphs), exact Lagrangians (lagrangian),
symmetrization merges (reduction), simplex maximization of the complete
graph closed form (simplex), and an exact simplex Bernstein positivity
certificate for the final trivariate inequality (certify).
"""

from .graphs import (
    OrientedGraph,
    UndirectedGraph,
    build_f,
    build_cf,
    build_bf,
    underlying,
    edge_density,
    has_induced_directed_c4,
    has_independent_4set,
    complete_graph,
)
from .lagrangian import (
    WeightVector,
    LagrangianValue,
    DensityReport,
    lagrangian_cf,
    lagrangian_bf,
    uniform_weights,
    density_from_uniform,
)
from .reduction import (
    MergeStep,
    reduce_to_complete,
)
from .simplex import (
    OptResult,
    closed_form,
    gradient,
    maximize,
    project_to_simplex,
    trivariate_g,
    majorization_bound_check,
)
from .polynomials import Poly, g_polynomial, h_polynomial, simplex_bernstein
from .certify import Certificate, Leaf, certify
from .harness import (
    enumerate_orientations,
    validate_fdf_family,
    pipeline_report,
)
from .fileio import ParseError, parse_graph, parse_weights

__version__ = "0.1.0"

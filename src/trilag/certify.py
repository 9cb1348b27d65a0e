"""Exact certificate that h = 3/32 - g is nonnegative on the sorted domain.

The domain D = {x1 >= x2 >= x3 >= 0, x1 + x2 + x3 <= 1} is the tetrahedron
with vertices (0,0,0), (1,0,0), (1/2,1/2,0) and (1/3,1/3,1/3).  Starting
from D, a simplex is discharged when every Bernstein-Bezier coefficient of
h on it is >= 0; otherwise its longest edge is bisected.  The discharged
leaves tile D, so h >= 0 on all of D.  A run processes at most
MAX_SIMPLICES simplices.

The coefficients are computed once, on D, as integer numerators over one
denominator by the packed-key conversion behind ``simplex_bernstein``.
Each half's coefficients come from its parent's by de Casteljau's
algorithm at t = 1/2 (``halve_bernstein``), over one denominator per
depth; a Fraction is made only for each leaf's bound.  The longest edge
is chosen on the vertices' integer numerators over their common
denominator; the vertices themselves stay Fractions.

h vanishes at the vertex (1/2,1/2,0), where its coefficient is exactly 0;
one bisection of D suffices.  Every number in the certificate is an exact
rational; output is canonical (sorted leaves) and independent of
processing order.

This module proves the polynomial inequality only.  The pipeline's value
of h at one point is 3/32 - g, with g from the integer core
_g_numerator of trilag.lagrangian, called in pipeline_report; the tests pin
that it equals h_polynomial() evaluated there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .polynomials import Poly, _bernstein_numerators, h_polynomial, halve_bernstein

CERTIFIED = "CERTIFIED"
INDETERMINATE = "INDETERMINATE"

Point = tuple[Fraction, Fraction, Fraction]
Simplex = tuple[Point, Point, Point, Point]

DOMAIN_VERTICES: Simplex = (
    (Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
)

# simplices one certify run may process; past it every simplex is a leaf
MAX_SIMPLICES = 2**16


@dataclass(frozen=True)
class Leaf:
    vertices: Simplex
    depth: int
    bound: Fraction  # least Bernstein coefficient; >= 0 means discharged


@dataclass
class Certificate:
    result: str
    leaves: list[Leaf]
    simplices_processed: int
    max_depth_reached: int

    def to_jsonable(self) -> dict:
        return {
            "result": self.result,
            "simplices_processed": self.simplices_processed,
            "max_depth_reached": self.max_depth_reached,
            "leaves": [
                {
                    "vertices": [[str(c) for c in v] for v in leaf.vertices],
                    "depth": leaf.depth,
                    "bound": str(leaf.bound),
                }
                for leaf in self.leaves
            ],
        }


def point_in_domain(x1, x2, x3) -> bool:
    """Exact membership in D (rationals only)."""
    x1, x2, x3 = Fraction(x1), Fraction(x2), Fraction(x3)
    return x1 >= x2 >= x3 >= 0 and x1 + x2 + x3 <= 1


def longest_edge(simplex: Simplex) -> tuple[int, int]:
    """The vertex-index pair (i, j), i < j, of the longest edge; ties go to the lowest pair.

    Squared lengths are compared on the integer numerators of the vertices
    over their common denominator.
    """
    den = lcm(*(c.denominator for v in simplex for c in v))
    points = [[c.numerator * (den // c.denominator) for c in v] for v in simplex]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def length2(pair):
        a, b = points[pair[0]], points[pair[1]]
        return sum((u - v) ** 2 for u, v in zip(a, b))

    return max(pairs, key=length2)  # max keeps the first of equal keys


def bisect(simplex: Simplex, edge: tuple[int, int]) -> tuple[Simplex, Simplex]:
    """Halve the edge (i, j).

    Each child keeps the vertex order, with the edge's midpoint in place of
    one of its ends: vertex j in the low child, vertex i in the high one,
    as ``halve_bernstein`` expects.
    """
    i, j = edge
    mid = tuple((u + v) / 2 for u, v in zip(simplex[i], simplex[j]))
    low, high = list(simplex), list(simplex)
    low[j] = mid
    high[i] = mid
    return tuple(low), tuple(high)


def simplex_volume(simplex: Simplex) -> Fraction:
    """Exact volume: |det(v1 - v0, v2 - v0, v3 - v0)| / 6."""
    a, b, c = [tuple(u - v for u, v in zip(p, simplex[0])) for p in simplex[1:]]
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    return abs(det) / 6


def certify(max_depth: int = 40, poly: Poly | None = None) -> Certificate:
    """Certify poly >= 0 (default: h) on D by simplex Bernstein subdivision.

    The leaves tile D exactly.  Once MAX_SIMPLICES simplices have been
    processed, the ones still on the stack (at most about max_depth of
    them) become leaves unsplit.  The result is INDETERMINATE when a leaf
    still has a negative coefficient, at max_depth or past the cap:
    insufficient work, or poly really is negative somewhere on that
    simplex, never a disproof.
    """
    p = h_polynomial() if poly is None else poly
    nums, den = _bernstein_numerators(p, DOMAIN_VERTICES)  # at depth d, den * 2^(n d)
    n = p.degree()
    stack = [(DOMAIN_VERTICES, nums, 0)]
    leaves: list[Leaf] = []
    processed = 0
    deepest = 0
    while stack:
        simplex, nums, depth = stack.pop()
        processed += 1
        deepest = max(deepest, depth)
        least = min(nums.values())
        if least >= 0 or depth >= max_depth or processed >= MAX_SIMPLICES:
            leaves.append(Leaf(simplex, depth, Fraction(least, den << (n * depth))))
        else:
            edge = longest_edge(simplex)
            halves = zip(bisect(simplex, edge), halve_bernstein(nums, *edge))
            stack.extend((child, half, depth + 1) for child, half in halves)

    leaves.sort(key=lambda leaf: leaf.vertices)
    return Certificate(
        result=CERTIFIED if all(leaf.bound >= 0 for leaf in leaves) else INDETERMINATE,
        leaves=leaves,
        simplices_processed=processed,
        max_depth_reached=deepest,
    )


def leaf_volume_total(cert: Certificate) -> Fraction:
    """Exact total volume of the certificate's leaves (1/36, D's volume, for a tiling)."""
    return sum((simplex_volume(leaf.vertices) for leaf in cert.leaves), Fraction(0))

"""Exact certificate that h = 3/32 - g is nonnegative on the sorted domain.

The domain D = {x1 >= x2 >= x3 >= 0, x1 + x2 + x3 <= 1} is the tetrahedron
with vertices (0,0,0), (1,0,0), (1/2,1/2,0) and (1/3,1/3,1/3).  Starting
from D, a simplex is discharged when every Bernstein-Bezier coefficient of
h on it is >= 0 (``simplex_bernstein``); otherwise its longest edge is
bisected.  The discharged leaves tile D, so h >= 0 on all of D.

h vanishes at the vertex (1/2,1/2,0), where its coefficient is exactly 0;
one bisection of D suffices.  Every number in the certificate is an exact
rational; output is canonical (sorted leaves) and independent of
processing order.

This module proves the polynomial inequality only.  The pipeline's value
of h at one point is 3/32 - g, with g from the integer core
_g_numerator of trilag.pipeline, called in pipeline_report; the tests pin
that it equals h_polynomial() evaluated there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Poly, h_polynomial, simplex_bernstein

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


def bisect(simplex: Simplex) -> tuple[Simplex, Simplex]:
    """Halve the longest edge (ties to the lowest vertex-index pair).

    Each child keeps the vertex order, with the edge's midpoint in place of
    one of its ends.
    """
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def length2(pair):
        a, b = simplex[pair[0]], simplex[pair[1]]
        return sum((u - v) ** 2 for u, v in zip(a, b))

    i, j = max(pairs, key=length2)  # max keeps the first of equal keys
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

    The leaves tile D exactly.  The result is INDETERMINATE when a simplex
    at max_depth still has a negative coefficient: insufficient depth, or
    poly really is negative somewhere on that simplex, never a disproof.
    """
    p = h_polynomial() if poly is None else poly
    stack = [(DOMAIN_VERTICES, 0)]
    leaves: list[Leaf] = []
    processed = 0
    deepest = 0
    while stack:
        simplex, depth = stack.pop()
        processed += 1
        deepest = max(deepest, depth)
        bound = min(simplex_bernstein(p, simplex).values())
        if bound >= 0 or depth >= max_depth:
            leaves.append(Leaf(simplex, depth, bound))
        else:
            stack.extend((child, depth + 1) for child in bisect(simplex))

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

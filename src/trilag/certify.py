"""Exact certificate that h = 3/32 - g is nonnegative on the sorted domain.

The domain D = {x1 >= x2 >= x3 >= 0, x1 + x2 + x3 <= 1} is the tetrahedron
with vertices (0,0,0), (1,0,0), (1/2,1/2,0) and (1/3,1/3,1/3).  Starting
from D, a simplex is discharged when every Bernstein-Bezier coefficient of
h on it is >= 0; otherwise its longest edge is bisected.  The discharged
leaves tile D, so h >= 0 on all of D.  A run processes at most
MAX_SIMPLICES simplices.

The coefficients are computed once, on D, as integer numerators over one
denominator Q by the packed-key conversion behind ``simplex_bernstein``.
``halve_bernstein`` gets each half's coefficients from its parent's by de
Casteljau's algorithm at t = 1/2 on the numerators, over Q 2^(n d) at
depth d, n being the degree; a Fraction is made only for each leaf's
bound.  ``simplex_bernstein`` stays the independent recomputation that
the tests check the halves against.  The longest edge is chosen on the
vertices' integer numerators over their common denominator; the vertices
themselves stay Fractions.

h vanishes at the vertex (1/2,1/2,0), where its coefficient is exactly 0;
one bisection of D suffices.  Every number in the certificate is an exact
rational; output is canonical (sorted leaves) and independent of
processing order.

The certificate is the report that ``trilag certify`` prints: certify
returns it as a dict of ints and p/q strings, with no record in between.
``leaf_simplex`` and ``leaf_volume_total`` read it, whether it comes from
certify or from a file that ``certify --out`` wrote, loaded with json.load.

This module proves the polynomial inequality only.  The pipeline's value
of h at one point is 3/32 - g, with g from the integer core
_g_numerator of trilag.lagrangian, called in pipeline_report; the tests pin
that it equals h_polynomial() evaluated there.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .polynomials import Poly, _bernstein_numerators, h_polynomial

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


def halve_bernstein(
    nums: dict[tuple[int, ...], int], i: int, j: int
) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """Bernstein numerators on the two halves of a tetrahedron bisected at edge (i, j).

    nums maps every multi-index a with |a| = n to an integer numerator of
    the coefficient b[a] over a common denominator Q.  The low half has the
    edge's midpoint in place of vertex j, the high half in place of vertex
    i, the other vertices kept in order.  Both returned maps are numerators
    over Q * 2^n.

    Along each line of multi-indices that differ only in a_i and a_j
    (a_i + a_j = m), the restriction is a 1-D Bernstein polynomial of
    degree m from vertex i to vertex j, and de Casteljau's algorithm at
    t = 1/2 splits it: the low half takes the first entry of each row, the
    high half the last.  Rows hold sums instead of averages, so row r is
    2^r times its average; shifting it left by n - r bits puts every entry
    over 2^n.
    """
    n = sum(next(iter(nums)))
    low, high = {}, {}
    for a in nums:
        if a[j]:
            continue
        m = a[i]  # a starts the line a_i + a_j = m, at a_j = 0
        line = []
        for k in range(m + 1):
            b = list(a)
            b[i], b[j] = m - k, k
            line.append(tuple(b))
        row = [nums[b] for b in line]
        for r in range(m + 1):
            low[line[r]] = row[0] << (n - r)
            high[line[m - r]] = row[-1] << (n - r)
            row = [x + y for x, y in zip(row, row[1:])]
    return low, high


def simplex_volume(simplex: Simplex) -> Fraction:
    """Exact volume: |det(v1 - v0, v2 - v0, v3 - v0)| / 6."""
    a, b, c = [tuple(u - v for u, v in zip(p, simplex[0])) for p in simplex[1:]]
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    return abs(det) / 6


def certify(max_depth: int = 40, poly: Poly | None = None) -> dict:
    """Certify poly >= 0 (default: h) on D by simplex Bernstein subdivision.

    Returns the report that ``trilag certify`` prints: ``result``,
    ``simplices_processed``, ``max_depth_reached`` and ``leaves``, sorted
    by vertices, each with its ``vertices`` (p/q strings), ``depth`` and
    ``bound`` (the least Bernstein coefficient; >= 0 means discharged).

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
    leaves = []  # (simplex, depth, bound)
    processed = 0
    deepest = 0
    while stack:
        simplex, nums, depth = stack.pop()
        processed += 1
        deepest = max(deepest, depth)
        least = min(nums.values())
        if least >= 0 or depth >= max_depth or processed >= MAX_SIMPLICES:
            leaves.append((simplex, depth, Fraction(least, den << (n * depth))))
        else:
            edge = longest_edge(simplex)
            halves = zip(bisect(simplex, edge), halve_bernstein(nums, *edge))
            stack.extend((child, half, depth + 1) for child, half in halves)

    leaves.sort(key=lambda leaf: leaf[0])
    return {
        "result": CERTIFIED if all(bound >= 0 for _, _, bound in leaves) else INDETERMINATE,
        "simplices_processed": processed,
        "max_depth_reached": deepest,
        "leaves": [
            {"vertices": [[str(c) for c in v] for v in simplex], "depth": depth, "bound": str(bound)}
            for simplex, depth, bound in leaves
        ],
    }


def leaf_simplex(leaf: dict) -> Simplex:
    """The Fraction simplex of a report leaf, from its p/q vertex strings."""
    return tuple(tuple(Fraction(c) for c in v) for v in leaf["vertices"])


def leaf_volume_total(report: dict) -> Fraction:
    """Exact total volume of a report's leaves (1/36, D's volume, for a tiling).

    The report may come from certify or from a file that ``certify --out``
    wrote, read back with json.load.
    """
    return sum((simplex_volume(leaf_simplex(leaf)) for leaf in report["leaves"]), Fraction(0))

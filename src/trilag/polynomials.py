"""Exact sparse polynomials over k variables and their Bernstein form on a tetrahedron.

Everything here is rational arithmetic: no floats, no rounding modes, no
computer algebra system.  A ``Poly`` is a sparse map from exponent tuples
of length k to int or Fraction coefficients: g and h use k = 3, the
barycentric forms of ``simplex_bernstein`` k = 4.  That function writes a
polynomial in the Bernstein-Bezier basis of a tetrahedron; the least
coefficient is a certified lower bound for the polynomial there, and the
coefficient at a vertex is its exact value at that vertex.

``halve_bernstein`` gets the coefficients on the two halves of a
tetrahedron bisected at an edge from the coefficients on the whole, by de
Casteljau's algorithm at t = 1/2 on integer numerators over one
denominator.  A subdivision search converts once, at its root, and halves
from there; ``simplex_bernstein`` stays the independent recomputation.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm


class Poly:
    """Polynomial in k variables as a sparse map exponent tuple -> int or Fraction.

    k is fixed when the polynomial is built.  Integer coefficients stay
    integers under +, - and *: every sum starts from the int 0.  Any other
    coefficient or scalar is made a Fraction, exactly, on the way in.
    """

    __slots__ = ("coeffs", "k")

    def __init__(self, coeffs=None, k: int = 3) -> None:
        terms = (coeffs or {}).items()
        self.coeffs = {tuple(m): c if type(c) is int else Fraction(c) for m, c in terms if c != 0}
        self.k = k

    @staticmethod
    def constant(c, k: int = 3) -> "Poly":
        return Poly({(0,) * k: c}, k)

    @staticmethod
    def variable(axis: int, k: int = 3) -> "Poly":
        return Poly({tuple(int(i == axis) for i in range(k)): 1}, k)

    def _check_k(self, other: "Poly") -> None:
        if other.k != self.k:
            raise ValueError(f"polynomials in {self.k} and {other.k} variables")

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.k)
        self._check_k(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Poly(out, self.k)

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.coeffs.items()}, self.k)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = other if type(other) is int else Fraction(other)
            return Poly({m: c * other for m, c in self.coeffs.items()}, self.k)
        self._check_k(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple([e1 + e2 for e1, e2 in zip(m1, m2)])
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out, self.k)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power")
        out = Poly.constant(1, self.k)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and (self.k, self.coeffs) == (other.k, other.coeffs)

    def evaluate(self, *xs) -> Fraction:
        """Exact value at k rational (Fraction or int) arguments."""
        if len(xs) != self.k:
            raise TypeError(f"{len(xs)} arguments for {self.k} variables")
        xs = [Fraction(x) for x in xs]
        total = Fraction(0)
        for m, c in self.coeffs.items():
            for x, e in zip(xs, m):
                c = c * x**e
            total += c
        return total

    def __repr__(self) -> str:
        return f"Poly({dict(sorted(self.coeffs.items()))}, k={self.k})"


def g_polynomial() -> Poly:
    """The trivariate domination function g, expanded exactly."""
    x1, x2, x3 = (Poly.variable(d) for d in range(3))
    one = Poly.constant(1)
    cubic = one - x1**3 - x2**3 - x3**3
    inner = one - x1**2 - x2**2 - x3 * (one - x1 - x2)
    return Fraction(1, 6) * cubic - Fraction(1, 8) * (inner * inner)


def h_polynomial() -> Poly:
    """h = 3/32 - g; nonnegativity of h on D is the certified claim."""
    return Poly.constant(Fraction(3, 32)) - g_polynomial()


def simplex_bernstein(p: Poly, vertices) -> dict[tuple[int, int, int, int], Fraction]:
    """Bernstein-Bezier coefficients b[a] of p on the tetrahedron with these vertices.

    In barycentric coordinates l (x = sum_i l_i v_i, sum_i l_i = 1) every
    monomial of degree d is multiplied by (l_0 + l_1 + l_2 + l_3)^(n - d),
    n being p's total degree, which makes p a form of degree n in l.  Its
    coefficient of l^a divided by the multinomial n!/(a_0! a_1! a_2! a_3!) is
    b[a], so that p = sum_a b[a] B_a with B_a = n!/a! l^a (Lai & Schumaker,
    Spline Functions on Triangulations).  The B_a are nonnegative on the
    tetrahedron and sum to one, so min b <= p <= max b there, and b at
    n * e_i is p at vertex i.  Every multi-index with |a| = n is present.

    The forms are built on integers.  With D the vertices' common
    denominator, D x1, D x2, D x3 and D are linear in l with integer
    coefficients; with S that of p's coefficients, the sum of the terms is
    S D^n p, and each b[a] is one division.
    """
    if p.k != 3:
        raise ValueError(f"simplex_bernstein needs a polynomial in 3 variables, not {p.k}")
    n = max((sum(m) for m in p.coeffs), default=0)
    verts = [tuple(Fraction(c) for c in v) for v in vertices]
    den = lcm(*(c.denominator for v in verts for c in v))
    scale = lcm(*(c.denominator for c in p.coeffs.values()))
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]  # the monomial l_i
    linear = [Poly({u: int(v[axis] * den) for u, v in zip(unit, verts)}, 4) for axis in range(3)]
    linear.append(Poly({u: den for u in unit}, 4))
    powers = []  # powers[axis][e] is the e-th power of linear[axis]
    for form in linear:
        row = [Poly.constant(1, 4)]
        for _ in range(n):
            row.append(row[-1] * form)
        powers.append(row)

    total = Poly.constant(0, 4)
    for (i, j, k), c in p.coeffs.items():
        term = powers[0][i] * powers[1][j] * powers[2][k] * powers[3][n - i - j - k]
        total = total + int(c * scale) * term

    coeffs = {}
    for a0 in range(n + 1):
        for a1 in range(n + 1 - a0):
            for a2 in range(n + 1 - a0 - a1):
                a = (a0, a1, a2, n - a0 - a1 - a2)
                multinomial = factorial(n)
                for e in a:
                    multinomial //= factorial(e)
                coeffs[a] = Fraction(total.coeffs.get(a, 0), scale * multinomial * den**n)
    return coeffs


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

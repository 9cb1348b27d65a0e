"""Exact sparse trivariate polynomials and their Bernstein form on a tetrahedron.

Everything here is rational arithmetic: no floats, no rounding modes, no
computer algebra system.  ``simplex_bernstein`` writes a polynomial in the
Bernstein-Bezier basis of a tetrahedron; the least coefficient is a
certified lower bound for the polynomial there, and the coefficient at a
vertex is its exact value at that vertex.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

ZERO = Fraction(0)


class Poly3:
    """Polynomial in x1,x2,x3 as a sparse map (i,j,k) -> rational coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None) -> None:
        canon = {}
        for mono, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0:
                canon[tuple(mono)] = c
        self.coeffs = canon

    @staticmethod
    def constant(c) -> "Poly3":
        return Poly3({(0, 0, 0): Fraction(c)})

    @staticmethod
    def variable(axis: int) -> "Poly3":
        mono = [0, 0, 0]
        mono[axis] = 1
        return Poly3({tuple(mono): Fraction(1)})

    def __add__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            other = Poly3.constant(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, ZERO) + c
        return Poly3(out)

    def __sub__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            other = Poly3.constant(other)
        return self + (-other)

    def __neg__(self) -> "Poly3":
        return Poly3({m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other) -> "Poly3":
        if not isinstance(other, Poly3):
            return Poly3({m: c * Fraction(other) for m, c in self.coeffs.items()})
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[m] = out.get(m, ZERO) + c1 * c2
        return Poly3(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly3":
        if e < 0:
            raise ValueError("negative power")
        out = Poly3.constant(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly3) and self.coeffs == other.coeffs

    def evaluate(self, x1, x2, x3) -> Fraction:
        """Exact value at rational (Fraction or int) arguments."""
        x1, x2, x3 = Fraction(x1), Fraction(x2), Fraction(x3)
        total = ZERO
        for (i, j, k), c in self.coeffs.items():
            total += c * x1**i * x2**j * x3**k
        return total

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        return f"Poly3({dict(self.sorted_terms())})"


def g_polynomial() -> Poly3:
    """The trivariate domination function g, expanded exactly."""
    x1, x2, x3 = (Poly3.variable(d) for d in range(3))
    one = Poly3.constant(1)
    cubic = one - x1**3 - x2**3 - x3**3
    inner = one - x1**2 - x2**2 - x3 * (one - x1 - x2)
    return Fraction(1, 6) * cubic - Fraction(1, 8) * (inner * inner)


def h_polynomial() -> Poly3:
    """h = 3/32 - g; nonnegativity of h on D is the certified claim."""
    return Poly3.constant(Fraction(3, 32)) - g_polynomial()




def _form_mul(a: dict, b: dict) -> dict:
    """Product of two polynomials in the four barycentric coordinates."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2], ma[3] + mb[3])
            out[m] = out.get(m, ZERO) + ca * cb
    return out


def simplex_bernstein(p: Poly3, vertices) -> dict[tuple[int, int, int, int], Fraction]:
    """Bernstein-Bezier coefficients b[a] of p on the tetrahedron with these vertices.

    In barycentric coordinates l (x = sum_i l_i v_i, sum_i l_i = 1) every
    monomial of degree d is multiplied by (l_0 + l_1 + l_2 + l_3)^(n - d),
    n being p's total degree, which makes p a form of degree n in l.  Its
    coefficient of l^a divided by the multinomial n!/(a_0! a_1! a_2! a_3!) is
    b[a], so that p = sum_a b[a] B_a with B_a = n!/a! l^a (Lai & Schumaker,
    Spline Functions on Triangulations).  The B_a are nonnegative on the
    tetrahedron and sum to one, so min b <= p <= max b there, and b at
    n * e_i is p at vertex i.  Every multi-index with |a| = n is present.
    """
    n = max((sum(m) for m in p.coeffs), default=0)
    verts = [tuple(Fraction(c) for c in v) for v in vertices]
    # x1, x2, x3 and 1 as linear forms in l; powers[axis][e] is the e-th power
    linear = [[v[axis] for v in verts] for axis in range(3)] + [[Fraction(1)] * 4]
    powers = []
    for weights in linear:
        form = {(0, 0, 0, 0): Fraction(1)}
        row = [form]
        step = {tuple(int(i == j) for j in range(4)): w for i, w in enumerate(weights) if w}
        for _ in range(n):
            form = _form_mul(form, step)
            row.append(form)
        powers.append(row)

    total = {}
    for (i, j, k), c in p.coeffs.items():
        term = _form_mul(_form_mul(powers[0][i], powers[1][j]),
                         _form_mul(powers[2][k], powers[3][n - i - j - k]))
        for m, t in term.items():
            total[m] = total.get(m, ZERO) + c * t

    coeffs = {}
    for a0 in range(n + 1):
        for a1 in range(n + 1 - a0):
            for a2 in range(n + 1 - a0 - a1):
                a = (a0, a1, a2, n - a0 - a1 - a2)
                multinomial = factorial(n)
                for e in a:
                    multinomial //= factorial(e)
                coeffs[a] = total.get(a, ZERO) / multinomial
    return coeffs

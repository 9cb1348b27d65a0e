"""Exact certificate that h = 3/32 - g is nonnegative on the sorted domain.

The domain D = {x1 >= x2 >= x3 >= 0, x1 + x2 + x3 <= 1} is the tetrahedron
with vertices (0,0,0), (1,0,0), (1/2,1/2,0) and (1/3,1/3,1/3).  h is
written once in the barycentric coordinates of D and its degree is raised
one step at a time, by Polya degree elevation, until no Bernstein-Bezier
coefficient is negative.  The Bernstein basis of any degree is >= 0 on D
and sums to 1 there, so h >= 0 on all of D.  The witness is one degree m:
a fresh Bernstein conversion of the paper's 3/32 - g at degree m, in
Fractions, checks it.

Everything here is rational arithmetic: no floats, no rounding modes, no
computer algebra system.  A ``Poly`` is a sparse map from exponent tuples
of k nonnegative ints, checked on the way in, to int or Fraction
coefficients.  h uses k = 3 and is expanded on integers, as 96 h
(``h96_polynomial``).

There is one product loop, on packed keys: the exponent tuple m is the int
m_0 + b m_1 + b^2 m_2 + ..., with the base b above every exponent of the
product, so multiplying two monomials is one integer addition.  ``Poly``'s
product packs its operands and unpacks the result.  The Bernstein
conversion, ``_power_form``, keeps its four barycentric linear forms
packed throughout and makes no Poly and no Fraction: its result is a form
homogeneous of degree n in l_0..l_3, so l^a is keyed on (a_1, a_2, a_3)
alone and l_0's key is 0.  ``_elevate`` raises that form's degree by one,
a copy and three shifted sums, for Polya degree elevation: the
coefficients of a form of high enough degree are all >= 0 wherever the
polynomial is > 0 on the tetrahedron.

In barycentric coordinates l (x = sum_i l_i v_i, sum_i l_i = 1) the
form's coefficient of l^a divided by the multinomial n!/(a_0! a_1! a_2! a_3!)
is the Bernstein-Bezier coefficient b[a], so that p = sum_a b[a] B_a with
B_a = n!/a! l^a (Lai & Schumaker, Spline Functions on Triangulations).
The B_a are nonnegative on the tetrahedron and sum to one, so
min b <= p <= max b there, and b at n * e_i is p at vertex i.

The form of h is converted from the integer 96 h, the 96 folded into the
denominator, and kept as integer numerators over one denominator on
``_power_form``'s packed keys.  b[a] = form[a] a! / (S D^m m!) has
form[a]'s sign, so each degree is tested without a factorial or a
Fraction.  When the least form value is 0, so is the least coefficient,
at the first zero; otherwise every value is weighed by its factorials
(``_bernstein_numerators``), once, at the final degree.  h vanishes at the
vertex (1/2,1/2,0), where its coefficient is exactly 0 at every degree;
at degree 8 all 165 coefficients are >= 0.  A run elevates up to
MAX_DEGREE.

The certificate is the report that ``trilag certify`` prints: certify
returns it as a dict of ints and p/q strings, with no record in between.

This module proves the polynomial inequality only.  The pipeline's value
of h at one point is 3/32 - g, with g from the integer core
_g_numerator of trilag.lagrangian, called in pipeline_report; the tests pin
that it equals 96 h over 96, h96_polynomial() evaluated there.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

CERTIFIED = "CERTIFIED"
INDETERMINATE = "INDETERMINATE"

DOMAIN_VERTICES = (
    (Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
)

# the degree at which certify stops elevating
MAX_DEGREE = 32


def _key(m: tuple[int, ...], base: int) -> int:
    """The packed key m_0 + base m_1 + base^2 m_2 + ... of an exponent tuple."""
    key = 0
    for e in reversed(m):
        key = key * base + e
    return key


def _mul_packed(f: dict, g: dict, out: dict) -> dict:
    """Add the product of two polynomials on packed keys to out, and return out.

    Multiplying two monomials adds their keys.  The keys must share one
    base larger than every exponent of the product, so that no sum of keys
    carries from one exponent into the next.
    """
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2
    return out


class Poly:
    """Polynomial in k variables as a sparse map exponent tuple -> int or Fraction.

    k is fixed when the polynomial is built, and every monomial must be a
    tuple of k nonnegative ints.  Integer coefficients stay integers under
    +, - and *: every sum starts from the int 0.  Any other coefficient or
    scalar is made a Fraction, exactly, on the way in.
    """

    __slots__ = ("coeffs", "k")

    def __init__(self, coeffs=None, k: int = 3) -> None:
        self.coeffs = {}
        self.k = k
        for m, c in (coeffs or {}).items():
            if not (
                type(m) is tuple and len(m) == k and all(type(e) is int and e >= 0 for e in m)
            ):
                raise ValueError(
                    f"monomial {m!r} is not a tuple of k = {k} nonnegative int exponents"
                )
            if c:
                self.coeffs[m] = c if type(c) is int or type(c) is Fraction else Fraction(c)

    @classmethod
    def _from_valid(cls, coeffs: dict, k: int) -> "Poly":
        """A Poly without __init__'s checks, for monomials of valid Polys.

        The coefficients must be ints or Fractions; zeros are dropped.
        """
        p = cls.__new__(cls)
        p.coeffs = {m: c for m, c in coeffs.items() if c}
        p.k = k
        return p

    @staticmethod
    def constant(c, k: int = 3) -> "Poly":
        return Poly({(0,) * k: c}, k)

    @staticmethod
    def variable(axis: int, k: int = 3) -> "Poly":
        if not 0 <= axis < k:
            raise ValueError(f"axis {axis} is not a variable of a polynomial in k = {k} variables")
        return Poly({tuple(int(i == axis) for i in range(k)): 1}, k)

    def degree(self) -> int:
        """Total degree; 0 for constants and the zero polynomial."""
        return max((sum(m) for m in self.coeffs), default=0)

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
        return Poly._from_valid(out, self.k)

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._from_valid({m: -c for m, c in self.coeffs.items()}, self.k)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = other if type(other) is int else Fraction(other)
            return Poly._from_valid({m: c * other for m, c in self.coeffs.items()}, self.k)
        self._check_k(other)
        base = self.degree() + other.degree() + 1  # exceeds every exponent of the product
        f = {_key(m, base): c for m, c in self.coeffs.items()}
        g = {_key(m, base): c for m, c in other.coeffs.items()}
        out = {}
        for key, c in _mul_packed(f, g, {}).items():
            m = []
            for _ in range(self.k):
                key, e = divmod(key, base)
                m.append(e)
            out[tuple(m)] = c
        return Poly._from_valid(out, self.k)

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


def h96_polynomial() -> Poly:
    """96 h = 16 (x1^3 + x2^3 + x3^3) + 12 q^2 - 7, on integers.

    h = 3/32 - g, with g = (1 - sum x^3)/6 - q^2/8 the trivariate
    domination function and q = 1 - x1^2 - x2^2 - x3 + x1 x3 + x2 x3.
    """
    q = Poly(
        {(0, 0, 0): 1, (2, 0, 0): -1, (0, 2, 0): -1, (0, 0, 1): -1, (1, 0, 1): 1, (0, 1, 1): 1}
    )
    rest = Poly({(3, 0, 0): 16, (0, 3, 0): 16, (0, 0, 3): 16, (0, 0, 0): -7})
    return 12 * (q * q) + rest


def _multi_indices(n: int):
    """Every (a_0, a_1, a_2, a_3) with sum n: a_0, then a_1, then a_2 ascending."""
    for a0 in range(n + 1):
        for a1 in range(n + 1 - a0):
            for a2 in range(n + 1 - a0 - a1):
                yield a0, a1, a2, n - a0 - a1 - a2


def _power_form(p: Poly, vertices, base: int) -> tuple[dict[int, int], int]:
    """The form S D^n p of degree n = p.degree() in the barycentric coordinates l.

    With D the vertices' common denominator and S that of p's coefficients,
    D x1, D x2, D x3 and D are linear in l with integer coefficients, and
    each monomial of degree d of p is multiplied by D^(n - d), which is
    (D (l_0 + l_1 + l_2 + l_3))^(n - d) since the l sum to 1.  The result
    is dense: every l^a with |a| = n has an entry, 0 included, in
    ``_multi_indices`` order, keyed on the packed int a_1 + b a_2 + b^2 a_3
    with b = base, a_0 being n - a_1 - a_2 - a_3; base must exceed n.
    Returns the form and its denominator S D^n.
    """
    if p.k != 3:
        raise ValueError(f"a Bernstein form on a tetrahedron needs a polynomial in 3 variables, not {p.k}")
    n = p.degree()
    b = n + 1  # the products' base; for n < 6 their keys are cached small ints
    unit = (0, 1, b, b * b)  # unit[i] is the key of l_i
    verts = [[c if type(c) is int or type(c) is Fraction else Fraction(c) for c in v] for v in vertices]
    den = lcm(*(c.denominator for v in verts for c in v))
    scale = lcm(*(c.denominator for c in p.coeffs.values()))
    forms = [  # D x1, D x2 and D x3 in l, then D
        {u: v[x].numerator * (den // v[x].denominator) for u, v in zip(unit, verts) if v[x]}
        for x in range(3)
    ]
    forms.append(dict.fromkeys(unit, den))
    powers = []  # powers[axis][e] is the e-th power of forms[axis]
    for form in forms:
        row = [{0: 1}]
        for _ in range(n):
            row.append(_mul_packed(row[-1], form, {}))
        powers.append(row)

    # total = S D^n p, summed over p's terms grouped by (i, j): each group is
    # (D x1)^i (D x2)^j times the sum of its S c (D x3)^k D^(n - i - j - k)
    by_ij = {}
    for (i, j, k), c in p.coeffs.items():
        by_ij.setdefault((i, j), []).append((k, c.numerator * (scale // c.denominator)))
    total = {}
    for (i, j), terms in by_ij.items():
        tail = {}
        for k, c in terms:
            scaled = {m: c * t for m, t in powers[3][n - i - j - k].items()}
            _mul_packed(powers[2][k], scaled, tail)
        _mul_packed(_mul_packed(powers[0][i], powers[1][j], {}), tail, total)

    return {
        a1 + base * (a2 + base * a3): total.get(a1 + b * (a2 + b * a3), 0)
        for _, a1, a2, a3 in _multi_indices(n)
    }, scale * den**n


def _elevate(form: dict[int, int], base: int) -> dict[int, int]:
    """The form times l_0 + l_1 + l_2 + l_3, on ``_power_form``'s packed keys.

    l_0's key is 0, so its product is a copy of the form; l_1, l_2 and l_3
    shift every key by 1, base and base^2.  The product has the degree one
    higher and the same value on the simplex; base must exceed that degree.
    """
    out = dict(form)
    get = out.get
    for shift in (1, base, base * base):
        for key, c in form.items():
            key += shift
            out[key] = get(key, 0) + c
    return out


def _bernstein_numerators(form: dict[int, int], degree: int, base: int) -> dict[tuple[int, int, int, int], int]:
    """The Bernstein numerators of a form of this degree on ``_power_form``'s keys.

    Each is the coefficient of l^a times a_0! a_1! a_2! a_3!, keyed by the
    multi-index a in ``_multi_indices`` order; over the form's denominator
    times degree!, it is the Bernstein-Bezier coefficient b[a].
    """
    fact = [factorial(e) for e in range(degree + 1)]
    return {
        a: form[a[1] + base * (a[2] + base * a[3])] * fact[a[0]] * fact[a[1]] * fact[a[2]] * fact[a[3]]
        for a in _multi_indices(degree)
    }


def certify(poly: Poly | None = None) -> dict:
    """Certify poly >= 0 (default: h) on D by Bernstein degree elevation.

    Returns the report that ``trilag certify`` prints: ``result``, the
    ``degree`` m of the form, the number of its ``coefficients``, the
    ``least`` coefficient (a p/q string) and ``least_at``, the first
    multi-index in ``_multi_indices`` order where it occurs.

    m is the first degree from poly's own with no negative coefficient.
    The result is INDETERMINATE when a coefficient is still negative at
    MAX_DEGREE (or at poly's degree, if that is higher): insufficient work,
    or poly really is negative somewhere on D, never a disproof.
    """
    p, scale = (h96_polynomial(), 96) if poly is None else (poly, 1)
    m = p.degree()
    base = max(m, MAX_DEGREE) + 1
    form, den = _power_form(p, DOMAIN_VERTICES, base)
    low = min(form.values())
    while m < MAX_DEGREE and low < 0:
        form = _elevate(form, base)
        m += 1
        low = min(form.values())

    if low == 0:  # b[a] has form[a]'s sign, so the least is 0, at the first zero
        num = 0
        least_at = next(a for a in _multi_indices(m) if form[a[1] + base * (a[2] + base * a[3])] == 0)
    else:
        nums = _bernstein_numerators(form, m, base)  # over den m!
        least_at, num = min(nums.items(), key=lambda e: e[1])  # the first of equal values
    least = Fraction(num, scale * den * factorial(m))
    return {
        "result": CERTIFIED if least >= 0 else INDETERMINATE,
        "degree": m,
        "coefficients": len(form),
        "least": str(least),
        "least_at": list(least_at),
    }

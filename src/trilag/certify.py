"""Exact certificate that h = 3/32 - g is nonnegative on the sorted domain.

The domain D = {x1 >= x2 >= x3 >= 0, x1 + x2 + x3 <= 1} is the tetrahedron
with vertices (0,0,0), (1,0,0), (1/2,1/2,0) and (1/3,1/3,1/3), kept as the
integers DOMAIN over 6.  h is written once in the barycentric coordinates
of D and its degree is raised one step at a time, by Polya degree
elevation, until no Bernstein-Bezier coefficient is negative.  The
Bernstein basis of any degree is >= 0 on D and sums to 1 there, so h >= 0
on all of D.  The witness is one degree m: a fresh Bernstein conversion of
the paper's 3/32 - g at degree m, in Fractions, checks it.

Everything here is integer arithmetic, with one Fraction for the least
coefficient: no floats, no rounding modes, no computer algebra system, and
no polynomial in x1, x2, x3.  certify proves h alone: it takes no
polynomial.

A form homogeneous of degree n in l_0..l_3 is a dict on packed keys: l^a
is keyed on the int a_1 + b a_2 + b^2 a_3, with the one base b = BASE
above every exponent up to MAX_DEGREE, so l_0's key is 0 and multiplying
two monomials is one integer addition (``_mul_packed``).  ``_h96_form``
evaluates the paper's formula for 96 h over such forms, from 6 x1, 6 x2
and 6 x3, which are linear in l with DOMAIN's integers as their
coefficients; it expands no monomial and makes no Fraction.  ``_elevate``
multiplies a form by E = l_0 + l_1 + l_2 + l_3 = 1, a copy and three
shifted sums: it makes the formula's constants homogeneous, and it is
Polya degree elevation: the coefficients of a form of high enough degree
are all >= 0 wherever the polynomial is > 0 on the tetrahedron.

In barycentric coordinates l (x = sum_i l_i v_i, sum_i l_i = 1) the
form's coefficient of l^a divided by the multinomial n!/(a_0! a_1! a_2! a_3!)
is the Bernstein-Bezier coefficient b[a], so that p = sum_a b[a] B_a with
B_a = n!/a! l^a (Lai & Schumaker, Spline Functions on Triangulations).
The B_a are nonnegative on the tetrahedron and sum to one, so
min b <= p <= max b there, and b at n * e_i is p at vertex i.

The form is 6^4 96 h, integer numerators over the one denominator
6^4 96.  b[a] = form[a] a! / (6^4 96 m!) has form[a]'s sign, so each
degree is tested without a factorial or a Fraction.  When the least form
value is 0, so is the least coefficient, at the first zero; otherwise
every value is weighed by its factorials (``_bernstein_numerators``),
once, at the final degree.  h vanishes at the vertex (1/2,1/2,0), where
its coefficient is exactly 0 at every degree; at degree 8 all 165
coefficients are >= 0.  A run elevates up to MAX_DEGREE.

The certificate is the report that ``trilag certify`` prints: certify
returns it as a dict of ints and p/q strings, with no record in between.

This module proves the polynomial inequality only.  The pipeline's value
of h at one point is 3/32 - g, with g from the integer core
_g_numerator of trilag.lagrangian, called in pipeline_report; the tests pin
that it equals the paper's 3/32 - g, expanded in Fractions, there.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

CERTIFIED = "CERTIFIED"
INDETERMINATE = "INDETERMINATE"

# D's vertices times 6, their least common denominator
DOMAIN = ((0, 0, 0), (6, 0, 0), (3, 3, 0), (2, 2, 2))

# the degree at which certify stops elevating
MAX_DEGREE = 32
BASE = MAX_DEGREE + 1  # the base of every packed key, above every exponent up to MAX_DEGREE


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


def _multi_indices(n: int):
    """Every (a_0, a_1, a_2, a_3) with sum n: a_0, then a_1, then a_2 ascending."""
    for a0 in range(n + 1):
        for a1 in range(n + 1 - a0):
            for a2 in range(n + 1 - a0 - a1):
                yield a0, a1, a2, n - a0 - a1 - a2


def _h96_form() -> dict[int, int]:
    """The form 6^4 96 h of degree 4 in the barycentric coordinates l of D.

    96 h = 16 (x1^3 + x2^3 + x3^3) + 12 q^2 - 7, with h = 3/32 - g,
    g = (1 - sum x^3)/6 - q^2/8 the trivariate domination function and
    q = 1 - x1^2 - x2^2 - x3 + x1 x3 + x2 x3.  y_i = 6 x_i is linear in l,
    with DOMAIN's integers as its coefficients, and E = l_0 + l_1 + l_2 + l_3
    is 1 on D, so each constant is made homogeneous by E:
    6^4 96 h = 12 Q^2 + (96 (y1^3 + y2^3 + y3^3) - 9072 E^3) E, with
    Q = 36 q = (36 E - 6 y3) E - y1^2 - y2^2 + (y1 + y2) y3.  Each factor E
    is one ``_elevate`` step, so the form is dense: every l^a with |a| = 4
    has an entry, 0 included, keyed on the packed int a_1 + b a_2 + b^2 a_3
    with b = BASE, a_0 being 4 - a_1 - a_2 - a_3.
    """
    unit = (0, 1, BASE, BASE * BASE)  # unit[v] is the key of l_v
    y = [{u: v[i] for u, v in zip(unit, DOMAIN) if v[i]} for i in range(3)]  # y[i] is 6 x_(i+1)
    # -9072 E^3, then 96 y_i^3 added for each i
    cubic = _elevate(_elevate(_elevate({0: -9072})))
    for yi in y:
        _mul_packed(_mul_packed(yi, yi, {}), {u: 96 * c for u, c in yi.items()}, cubic)
    # (36 E - 6 y3) E, then -y_i^2 and y_i y3 added for y1 and y2
    q = _elevate(_mul_packed(y[2], {0: -6}, _elevate({0: 36})))
    for yi in y[:2]:
        _mul_packed(yi, {u: -c for u, c in yi.items()}, q)
        _mul_packed(yi, y[2], q)
    return _mul_packed(q, {u: 12 * c for u, c in q.items()}, _elevate(cubic))


def _elevate(form: dict[int, int]) -> dict[int, int]:
    """The form times E = l_0 + l_1 + l_2 + l_3, on packed keys of BASE.

    l_0's key is 0, so its product is a copy of the form; l_1, l_2 and l_3
    shift every key by 1, BASE and BASE^2.  The product has the degree one
    higher and the same value on the simplex; that degree must be below BASE.
    """
    out = dict(form)
    get = out.get
    for shift in (1, BASE, BASE * BASE):
        for key, c in form.items():
            key += shift
            out[key] = get(key, 0) + c
    return out


def _bernstein_numerators(form: dict[int, int], degree: int) -> dict[tuple[int, int, int, int], int]:
    """The Bernstein numerators of a form of this degree on packed keys of BASE.

    Each is the coefficient of l^a times a_0! a_1! a_2! a_3!, keyed by the
    multi-index a in ``_multi_indices`` order; over the form's denominator
    times degree!, it is the Bernstein-Bezier coefficient b[a].
    """
    fact = [factorial(e) for e in range(degree + 1)]
    return {
        a: form[a[1] + BASE * (a[2] + BASE * a[3])] * fact[a[0]] * fact[a[1]] * fact[a[2]] * fact[a[3]]
        for a in _multi_indices(degree)
    }


def certify() -> dict:
    """Certify h = 3/32 - g >= 0 on D by Bernstein degree elevation of 96 h.

    Returns the report that ``trilag certify`` prints: ``result``, the
    ``degree`` m of the form, the number of its ``coefficients``, the
    ``least`` coefficient (a p/q string) and ``least_at``, the first
    multi-index in ``_multi_indices`` order where it occurs.

    m is the first degree from h's own, 4, with no negative coefficient;
    the form's 6^4 96 is folded into the least coefficient's denominator.
    The result is INDETERMINATE when a coefficient is still negative at
    MAX_DEGREE (or at degree 4, if that is higher): insufficient work, or
    the polynomial really is negative somewhere on D, never a disproof.
    """
    m = 4
    form = _h96_form()
    low = min(form.values())
    while m < MAX_DEGREE and low < 0:
        form = _elevate(form)
        m += 1
        low = min(form.values())

    if low == 0:  # b[a] has form[a]'s sign, so the least is 0, at the first zero
        num = 0
        least_at = next(a for a in _multi_indices(m) if form[a[1] + BASE * (a[2] + BASE * a[3])] == 0)
    else:
        nums = _bernstein_numerators(form, m)  # over 6^4 m!
        least_at, num = min(nums.items(), key=lambda e: e[1])  # the first of equal values
    least = Fraction(num, 96 * 6**4 * factorial(m))
    return {
        "result": CERTIFIED if least >= 0 else INDETERMINATE,
        "degree": m,
        "coefficients": len(form),
        "least": str(least),
        "least_at": list(least_at),
    }

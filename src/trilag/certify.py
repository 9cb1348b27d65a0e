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
coefficient: no floats, no rounding modes, no computer algebra system.  A
polynomial in x1, x2, x3 is a plain dict of its terms, {(i, j, k): c} for
c x1^i x2^j x3^k, with nonzero int coefficients.  h is expanded on
integers, as 96 h (``h96_polynomial``), and certify proves it alone: it
takes no polynomial.

There is one product loop, on packed keys: the exponent tuple m is the int
m_0 + b m_1 + b^2 m_2 + ..., with the base b above every exponent of the
product, so multiplying two monomials is one integer addition.
``h96_polynomial`` squares q on keys of base 5.  The Bernstein
conversion, ``_power_form``, keeps 6 x1, 6 x2 and 6 x3 and their powers
packed in the barycentric coordinates of D and makes no Fraction: its result
is a form homogeneous of degree n in l_0..l_3, so l^a is keyed on
(a_1, a_2, a_3) alone and l_0's key is 0.  ``_elevate`` multiplies such a
form by l_0 + l_1 + l_2 + l_3 = 1, a copy and three shifted sums: it sums
p's degrees by Horner in ``_power_form``, and it is Polya degree
elevation: the coefficients of a form of high enough degree are all >= 0
wherever the polynomial is > 0 on the tetrahedron.

In barycentric coordinates l (x = sum_i l_i v_i, sum_i l_i = 1) the
form's coefficient of l^a divided by the multinomial n!/(a_0! a_1! a_2! a_3!)
is the Bernstein-Bezier coefficient b[a], so that p = sum_a b[a] B_a with
B_a = n!/a! l^a (Lai & Schumaker, Spline Functions on Triangulations).
The B_a are nonnegative on the tetrahedron and sum to one, so
min b <= p <= max b there, and b at n * e_i is p at vertex i.

The form of h is converted from the integer 96 h, the 96 folded into the
denominator, and kept as integer numerators over one denominator on
``_power_form``'s packed keys.  b[a] = form[a] a! / (96 D^m m!) has
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
from math import factorial

CERTIFIED = "CERTIFIED"
INDETERMINATE = "INDETERMINATE"

# D's vertices times 6, their least common denominator
DOMAIN = ((0, 0, 0), (6, 0, 0), (3, 3, 0), (2, 2, 2))

# the degree at which certify stops elevating
MAX_DEGREE = 32


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


def h96_polynomial() -> dict[tuple[int, int, int], int]:
    """96 h = 16 (x1^3 + x2^3 + x3^3) + 12 q^2 - 7, as its 24 integer terms.

    h = 3/32 - g, with g = (1 - sum x^3)/6 - q^2/8 the trivariate
    domination function and q = 1 - x1^2 - x2^2 - x3 + x1 x3 + x2 x3.
    Every exponent of 96 h is at most 4, so its terms are packed on the
    keys i + 5 j + 25 k: 12 q q is one _mul_packed call, added to the rest.
    """
    q = {0: 1, 2: -1, 10: -1, 25: -1, 26: 1, 30: 1}
    rest = {3: 16, 15: 16, 75: 16, 0: -7}  # 16 x1^3, 16 x2^3, 16 x3^3 and -7
    packed = _mul_packed(q, {key: 12 * c for key, c in q.items()}, rest)
    return {(key % 5, key // 5 % 5, key // 25): c for key, c in packed.items() if c}


def _multi_indices(n: int):
    """Every (a_0, a_1, a_2, a_3) with sum n: a_0, then a_1, then a_2 ascending."""
    for a0 in range(n + 1):
        for a1 in range(n + 1 - a0):
            for a2 in range(n + 1 - a0 - a1):
                yield a0, a1, a2, n - a0 - a1 - a2


def _power_form(p: dict, base: int) -> tuple[dict[int, int], int]:
    """The form D^n p of degree n, p's, in the barycentric coordinates l of D.

    With D = 6 the vertices' least common denominator, D x1, D x2 and D x3
    are linear in l, with DOMAIN's integers as their coefficients.  Write
    p_d for p's terms of degree d; since the l sum to 1,
    D^n p = sum_d D^(n - d) p_d(D x) (l_0 + l_1 + l_2 + l_3)^(n - d),
    which is summed by Horner in the degree: for d = 0..n the sum so far is
    raised one degree by ``_elevate`` and D^(n - d) p_d(D x) is added,
    with D^(n - d) folded into each term's integer coefficient.  The result
    is dense: every l^a with |a| = n has an entry, 0 included, in
    ``_multi_indices`` order, keyed on the packed int a_1 + b a_2 + b^2 a_3
    with b = base, a_0 being n - a_1 - a_2 - a_3; base must exceed n.
    p is a term dict with nonzero int coefficients, as ``h96_polynomial``
    returns it.  Returns the form and its denominator D^n.
    """
    n = max(map(sum, p))
    b = n + 1  # the products' base; for n < 6 their keys are cached small ints
    unit = (0, 1, b, b * b)  # unit[i] is the key of l_i
    powers = []  # powers[x][e] is the e-th power of D x_(x+1) in l
    for x in range(3):
        form = {u: v[x] for u, v in zip(unit, DOMAIN) if v[x]}
        row = [{0: 1}]
        for _ in range(n):
            row.append(_mul_packed(row[-1], form, {}))
        powers.append(row)

    # layers[d][i] lists p's terms of degree d with x1^i, as (j, k, D^(n - d) c);
    # layer d is the sum over i of (D x1)^i times the sum of its (D x2)^j (D x3)^k c
    layers = [{} for _ in range(n + 1)]
    for (i, j, k), c in p.items():
        layers[i + j + k].setdefault(i, []).append((j, k, c * 6 ** (n - i - j - k)))
    total = {}
    for layer in layers:
        total = _elevate(total, b)
        for i, terms in layer.items():
            inner = {}
            for j, k, c in terms:
                _mul_packed(powers[1][j], {m: c * t for m, t in powers[2][k].items()}, inner)
            _mul_packed(powers[0][i], inner, total)

    return {
        a1 + base * (a2 + base * a3): total.get(a1 + b * (a2 + b * a3), 0)
        for _, a1, a2, a3 in _multi_indices(n)
    }, 6**n


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


def certify() -> dict:
    """Certify h = 3/32 - g >= 0 on D by Bernstein degree elevation of 96 h.

    Returns the report that ``trilag certify`` prints: ``result``, the
    ``degree`` m of the form, the number of its ``coefficients``, the
    ``least`` coefficient (a p/q string) and ``least_at``, the first
    multi-index in ``_multi_indices`` order where it occurs.

    m is the first degree from h's own, 4, with no negative coefficient;
    the 96 is folded into the least coefficient's denominator.  The result
    is INDETERMINATE when a coefficient is still negative at MAX_DEGREE (or
    at degree 4, if that is higher): insufficient work, or the polynomial
    really is negative somewhere on D, never a disproof.
    """
    p = h96_polynomial()
    m = max(map(sum, p))
    base = max(m, MAX_DEGREE) + 1
    form, den = _power_form(p, base)
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
    least = Fraction(num, 96 * den * factorial(m))
    return {
        "result": CERTIFIED if least >= 0 else INDETERMINATE,
        "degree": m,
        "coefficients": len(form),
        "least": str(least),
        "least_at": list(least_at),
    }

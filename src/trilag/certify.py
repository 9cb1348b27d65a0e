"""Exact certificate that h = 3/32 - g is nonnegative on the sorted domain.

The domain D = {x1 >= x2 >= x3 >= 0, x1 + x2 + x3 <= 1} is the tetrahedron
with vertices (0,0,0), (1,0,0), (1/2,1/2,0) and (1/3,1/3,1/3).  h is
written once in the barycentric coordinates of D and its degree is raised
one step at a time, by Polya degree elevation, until no Bernstein-Bezier
coefficient is negative.  The Bernstein basis of any degree is >= 0 on D
and sums to 1 there, so h >= 0 on all of D.  The witness is one degree m:
a fresh Bernstein conversion of the paper's 3/32 - g at degree m, in
Fractions, checks it.

The form of h is converted from the integer 96 h (``h96_polynomial``),
the 96 folded into the denominator, and kept as integer numerators over
one denominator on ``_power_form``'s packed keys.  b[a] = form[a] a! /
(S D^m m!) has form[a]'s sign, so each degree is tested without a
factorial or a Fraction.  When the least form value is 0, so is the least
coefficient, at the first zero; otherwise every value is weighed by its
factorials, once, at the final degree.  h vanishes at the vertex (1/2,1/2,0), where
its coefficient is exactly 0 at every degree; at degree 8 all 165
coefficients are >= 0.  A run elevates up to MAX_DEGREE.

The certificate is the report that ``trilag certify`` prints: certify
returns it as a dict of ints and p/q strings, with no record in between.

This module proves the polynomial inequality only.  The pipeline's value
of h at one point is 3/32 - g, with g from the integer core
_g_numerator of trilag.lagrangian, called in pipeline_report; the tests pin
that it equals h_polynomial() evaluated there.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .polynomials import Poly, _bernstein_numerators, _elevate, _multi_indices, _power_form, h96_polynomial

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


def certify(poly: Poly | None = None) -> dict:
    """Certify poly >= 0 (default: h) on D by Bernstein degree elevation.

    Returns the report that ``trilag certify`` prints: ``result``, the
    ``degree`` m of the form, the number of its ``coefficients``, the
    ``least`` coefficient (a p/q string) and ``least_at``, the first
    multi-index in ``simplex_bernstein``'s order where it occurs.

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

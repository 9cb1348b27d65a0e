import random
import re
from fractions import Fraction

from math import factorial

import pytest

from helpers import (
    DOMAIN_VERTICES,
    Poly,
    bernstein_oracle,
    elevate_oracle,
    fraction_weights,
    g_polynomial_oracle,
    h_oracle,
    packed_coefficients,
    stability_polynomial,
)
from trilag.certify import BASE, _h96_form
from trilag.lagrangian import _g_numerator

HALF = Fraction(1, 2)


def rand_rational(rng, den=64):
    return Fraction(rng.randint(0, den), den)


def test_h_key_values():
    """h at three vertices of D, and there the prover's form of 6^4 96 h:
    its coefficient at 4 e_i is 6^4 96 times h at vertex i.  h has degree 4."""
    h, form = h_oracle(), _h96_form()
    for point, value in (((HALF, HALF, 0), 0), ((1, 0, 0), Fraction(3, 32)),
                         ((Fraction(1, 3),) * 3, Fraction(1, 864))):
        key = 4 * (0, 1, BASE, BASE**2)[DOMAIN_VERTICES.index(point)]  # l_i^4 on keys of BASE
        assert h.evaluate(*point) == Fraction(form[key], 6**4 * 96) == value
    assert h.degree() == max(sum(m) for m in h.coeffs) == 4


def test_g_poly_matches_direct_expression():
    """The paper's g, expanded in Fraction Polys, equals g's integer core at random points."""
    g = g_polynomial_oracle()
    rng = random.Random(3)
    hits = 0
    while hits < 300:
        x = sorted((rand_rational(rng) for _ in range(3)), reverse=True)
        if sum(x) > 1:
            continue
        w = fraction_weights([*x, 1 - sum(x)])  # g's core takes the numerators over d
        d = w.denominator
        assert g.evaluate(*x) == Fraction(_g_numerator(d, *w.numerators[:3]), 24 * d**4)
        hits += 1


def test_g_and_h_expand_the_papers_formula():
    """3/32 minus g's formula in Fraction Polys is, over 96, the integer
    polynomial 96 h = 16 (x1^3 + x2^3 + x3^3) + 12 q^2 - 7 of 24 terms, with
    q = 1 - x1^2 - x2^2 - x3 + x1 x3 + x2 x3."""
    h = h_oracle()
    x1, x2, x3 = (Poly.variable(d) for d in range(3))
    q = Poly.constant(1) - x1**2 - x2**2 - x3 + x1 * x3 + x2 * x3
    h96 = 16 * (x1**3 + x2**3 + x3**3) + 12 * q * q - 7
    assert all(type(c) is Fraction for c in h.coeffs.values())
    assert len(h96.coeffs) == 24 and all(type(c) is int for c in h96.coeffs.values())
    assert 96 * h == h96


@pytest.mark.parametrize(
    "monomial, k",
    [
        ((-1, 0, 0), 3),
        ((1, 0), 3),
        ((1, 0, 0, 0), 3),
        ((0.5, 0, 0), 3),
        ((1, 0, 0), 4),
        ((0, -2, 0, 1), 4),
    ],
)
def test_poly_refuses_a_malformed_monomial(monomial, k):
    message = re.escape(f"monomial {monomial!r} is not a tuple of k = {k} nonnegative int")
    with pytest.raises(ValueError, match=message):
        Poly({monomial: 1}, k)
    with pytest.raises(ValueError, match=message):
        Poly({(0,) * k: 1, monomial: 0}, k)  # a zero coefficient does not excuse it


@pytest.mark.parametrize("axis, k", [(3, 3), (-1, 3), (0, 0), (2, 2), (4, 4), (-1, 1)])
def test_poly_variable_refuses_an_axis_outside_its_variables(axis, k):
    message = re.escape(f"axis {axis} is not a variable of a polynomial in k = {k} variables")
    with pytest.raises(ValueError, match=message):
        Poly.variable(axis, k)
    # every axis in 0..k-1 gives its variable
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    assert [Poly.variable(i, k).coeffs for i in range(k)] == [{unit: 1} for unit in units]


def test_poly_arithmetic():
    x1 = Poly.variable(0)
    x2 = Poly.variable(1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (x1 + 1).evaluate(Fraction(2), 0, 0) == 3
    assert (x1**3).coeffs == {(3, 0, 0): 1}
    assert Poly.constant(0).coeffs == {}
    half = 0.5 * x1 + 0.25  # floats become exact Fractions
    assert half.coeffs == {(1, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(1, 4)}
    assert all(type(c) is Fraction for c in half.coeffs.values())
    # the same product over k = 4: a linear form squared equals its expansion
    l0, l1, _, l3 = (Poly.variable(i, k=4) for i in range(4))
    form = l0 + 2 * l1 - l3
    assert (form * form).coeffs == {
        (2, 0, 0, 0): 1, (1, 1, 0, 0): 4, (0, 2, 0, 0): 4,
        (1, 0, 0, 1): -2, (0, 1, 0, 1): -4, (0, 0, 0, 2): 1,
    }
    assert form * form == form**2
    assert Poly.constant(1, k=4) != Poly.constant(1)
    assert form.evaluate(1, 1, 0, 1) == 2
    with pytest.raises(TypeError):
        form.evaluate(1, 1, 0)
    for mixed in (lambda: x1 + l0, lambda: x1 * l3):
        with pytest.raises(ValueError):
            mixed()


def rand_barycentric(rng):
    weights = [Fraction(rng.randint(0, 1000)) for _ in range(4)]
    if not any(weights):
        weights[0] = Fraction(1)
    return [w / sum(weights) for w in weights]


def bernstein_value(coeffs, lam):
    """sum_a b[a] n!/a! lam^a: the polynomial from its Bernstein coefficients."""
    total = Fraction(0)
    for a, b in coeffs.items():
        term = b * factorial(sum(a))
        for l, e in zip(lam, a):
            term = term * l**e / factorial(e)
        total += term
    return total


def at(lam):
    """The point of D with barycentric coordinates lam."""
    return tuple(sum(l * v[k] for l, v in zip(lam, DOMAIN_VERTICES)) for k in range(3))


def vertex_index(n, i):
    return tuple(n if j == i else 0 for j in range(4))


def test_bernstein_form_reproduces_h_on_the_domain():
    h = h_oracle()
    rng = random.Random(400)
    coeffs = packed_coefficients(h.coeffs, h.degree())
    assert len(coeffs) == 35  # degree 4 in four barycentric coordinates
    for _ in range(150):
        lam = rand_barycentric(rng)
        assert bernstein_value(coeffs, lam) == h.evaluate(*at(lam))


def test_bernstein_linear_poly_is_exact_corner_min():
    """A linear polynomial's four coefficients are its values at D's vertices."""
    rng = random.Random(7)
    x1, x2, x3 = (Poly.variable(i) for i in range(3))
    for _ in range(20):
        a, b, c, e = (Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4))
        p = a * x1 + b * x2 + c * x3 + e
        coeffs = packed_coefficients(p.coeffs, 1)
        assert sorted(coeffs.values()) == sorted(p.evaluate(*v) for v in DOMAIN_VERTICES)


def test_bernstein_corner_coefficients_are_exact_values():
    rng = random.Random(11)
    polys = [h_oracle(), stability_polynomial()] + [rand_poly(rng, d) for d in range(1, 7)]
    for p in polys:
        coeffs = packed_coefficients(p.coeffs, p.degree())
        for i, v in enumerate(DOMAIN_VERTICES):
            assert coeffs[vertex_index(p.degree(), i)] == p.evaluate(*v)


def test_bernstein_zero_corner_cell():
    """h's coefficient at D's vertex (1/2, 1/2, 0), its zero, is 0 at every
    degree; the least coefficient is -1/32 at degree 4 and 0 at degree 8."""
    h = h_oracle()
    i = DOMAIN_VERTICES.index((HALF, HALF, Fraction(0)))
    for m in range(4, 10):
        assert packed_coefficients(h.coeffs, m)[vertex_index(m, i)] == 0
    assert min(packed_coefficients(h.coeffs, 4).values()) == Fraction(-1, 32)
    assert min(packed_coefficients(h.coeffs, 8).values()) == 0


def test_bernstein_soundness_by_sampling():
    rng = random.Random(23)
    polys = [h_oracle()] + [rand_poly(rng, 1 + r % 6) for r in range(19)]
    for p in polys:
        coeffs = packed_coefficients(p.coeffs, p.degree())
        low, high = min(coeffs.values()), max(coeffs.values())
        for _ in range(100):
            assert low <= p.evaluate(*at(rand_barycentric(rng))) <= high


def test_bernstein_coefficients_are_fractions():
    h = h_oracle()
    assert all(type(b) is Fraction for b in packed_coefficients(h.coeffs, h.degree()).values())
    # integer coefficients: the form's ints over its int denominator are
    # Fractions, where an int / int division would give floats
    p = Poly.variable(0) - 2 * Poly.variable(1) + 1
    rng = random.Random(5)
    for q in (p, p * p):
        coeffs = packed_coefficients(q.coeffs, q.degree())
        assert all(type(b) is Fraction for b in coeffs.values())
        for _ in range(20):
            lam = rand_barycentric(rng)
            assert bernstein_value(coeffs, lam) == q.evaluate(*at(lam))


def rand_poly(rng, degree):
    """Random rational coefficients on every monomial of degree <= degree, the top one nonzero."""
    coeffs = {
        (i, j, k): Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
        for k in range(degree + 1 - i - j)
    }
    coeffs[(0, 0, degree)] = Fraction(rng.randint(1, 40), rng.randint(1, 12))
    return Poly(coeffs)


def empty_layer_polys():
    """Polynomials with no term of some degree below their own: x1^3 x3 - 5
    (degrees 1-3 empty), x3 - 7/3 x1^3 (degrees 0 and 2) and the
    homogeneous quartic x1^2 x3^2 + x2^4."""
    x1, x2, x3 = (Poly.variable(i) for i in range(3))
    return [x1**3 * x3 - 5, x3 - Fraction(7, 3) * x1**3, x1**2 * x3**2 + x2**4]


def test_elevation_equals_the_fraction_oracle_at_every_degree():
    """The packed elevation equals Fraction elevation of bernstein_oracle's coefficients."""
    rng = random.Random(28)
    h = h_oracle()
    cases = [(h, range(4, 9)), (stability_polynomial(), range(4, 10)), (Poly.constant(Fraction(-5, 7)), range(0, 4))]
    cases += [(rand_poly(rng, d), range(d, d + 4)) for d in range(5) for _ in range(3)]
    cases += [(p, range(p.degree(), p.degree() + 4)) for p in empty_layer_polys()]
    for p, degrees in cases:
        for m in degrees:
            assert packed_coefficients(p.coeffs, m) == elevate_oracle(p, m)
    # the form's value is kept: at degree 9, h's coefficients still give h
    coeffs = packed_coefficients(h.coeffs, 9)
    for _ in range(20):
        lam = rand_barycentric(rng)
        assert bernstein_value(coeffs, lam) == h.evaluate(*at(lam))


def test_bernstein_equals_the_poly_product_oracle():
    """The packed-key conversion equals the one of Poly products: values, types and key order."""
    rng = random.Random(19)
    polys = [rand_poly(rng, d) for d in range(9)] + [
        Poly.variable(0) ** 9,
        Poly(),
        Poly.constant(Fraction(-5, 7)),
        h_oracle(),
        stability_polynomial(),
        *empty_layer_polys(),
    ]
    for p in polys:
        got = packed_coefficients(p.coeffs, p.degree())
        assert list(got.items()) == list(bernstein_oracle(p, DOMAIN_VERTICES).items())
        assert all(type(b) is Fraction for b in got.values())

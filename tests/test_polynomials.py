import random
import re
from fractions import Fraction

from math import factorial, lcm

import pytest

from helpers import bernstein_oracle, g_polynomial_oracle, stability_polynomial
from trilag.certify import DOMAIN_VERTICES, bisect, certify
from trilag.lagrangian import WeightVector, _g_numerator
from trilag.polynomials import (
    Poly,
    g_polynomial,
    h_polynomial,
    halve_bernstein,
    simplex_bernstein,
)


def rand_rational(rng, den=64):
    return Fraction(rng.randint(0, den), den)


def test_h_key_values():
    h = h_polynomial()
    assert h.evaluate(Fraction(1, 2), Fraction(1, 2), Fraction(0)) == 0
    assert h.evaluate(Fraction(1), Fraction(0), Fraction(0)) == Fraction(3, 32)
    assert h.evaluate(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)) == Fraction(1, 864)
    assert max(sum(m) for m in h.coeffs) == 4


def test_g_poly_matches_direct_expression():
    g = g_polynomial()
    rng = random.Random(3)
    hits = 0
    while hits < 300:
        x = sorted((rand_rational(rng) for _ in range(3)), reverse=True)
        if sum(x) > 1:
            continue
        w = WeightVector([*x, 1 - sum(x)])  # g's core takes the numerators over d
        d = w.denominator
        assert g.evaluate(*x) == Fraction(_g_numerator(d, *w.numerators[:3]), 24 * d**4)
        hits += 1


def test_g_and_h_expand_the_papers_formula():
    """g and h, built on integers from 24 g and 96 h, equal g's formula in Fraction Polys."""
    g, h = g_polynomial(), h_polynomial()
    assert g == g_polynomial_oracle()
    assert h == Poly.constant(Fraction(3, 32)) - g
    assert all(type(c) is Fraction for p in (g, h) for c in p.coeffs.values())


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
    with pytest.raises(ValueError, match=message):
        simplex_bernstein(Poly({monomial: 1}, k), DOMAIN_VERTICES)


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


def rand_simplex(rng, den=64):
    while True:
        verts = tuple(tuple(rand_rational(rng, den) for _ in range(3)) for _ in range(4))
        if len(set(verts)) == 4:
            return verts


def signed_simplex(rng, den):
    """Four distinct vertices with coordinates in [-1, 1] over den."""
    while True:
        verts = tuple(
            tuple(Fraction(rng.randint(-den, den), den) for _ in range(3)) for _ in range(4)
        )
        if len(set(verts)) == 4:
            return verts


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


def at(vertices, lam):
    return tuple(sum(l * v[k] for l, v in zip(lam, vertices)) for k in range(3))


def vertex_index(n, i):
    return tuple(n if j == i else 0 for j in range(4))


def test_bernstein_form_reproduces_h_on_each_leaf():
    h = h_polynomial()
    rng = random.Random(400)
    simplices = [DOMAIN_VERTICES] + [leaf.vertices for leaf in certify().leaves]
    for vertices in simplices:
        coeffs = simplex_bernstein(h, vertices)
        assert len(coeffs) == 35  # degree 4 in four barycentric coordinates
        for _ in range(150):
            lam = rand_barycentric(rng)
            assert bernstein_value(coeffs, lam) == h.evaluate(*at(vertices, lam))


def test_bernstein_linear_poly_is_exact_corner_min():
    p = Poly.variable(0) - 2 * Poly.variable(1) + Poly.constant(Fraction(1, 4))
    rng = random.Random(7)
    for _ in range(20):
        vertices = rand_simplex(rng)
        coeffs = simplex_bernstein(p, vertices)
        assert sorted(coeffs.values()) == sorted(p.evaluate(*v) for v in vertices)


def test_bernstein_corner_coefficients_are_exact_values():
    h = h_polynomial()
    rng = random.Random(11)
    simplices = [leaf.vertices for leaf in certify().leaves] + [rand_simplex(rng) for _ in range(5)]
    for vertices in simplices:
        coeffs = simplex_bernstein(h, vertices)
        for i, v in enumerate(vertices):
            assert coeffs[vertex_index(4, i)] == h.evaluate(*v)


def test_bernstein_zero_corner_cell():
    # every leaf has the equality point of h as a vertex, with coefficient 0
    h = h_polynomial()
    zero = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    for leaf in certify().leaves:
        coeffs = simplex_bernstein(h, leaf.vertices)
        assert coeffs[vertex_index(4, leaf.vertices.index(zero))] == 0
        assert min(coeffs.values()) == 0


def test_bernstein_soundness_by_sampling():
    h = h_polynomial()
    rng = random.Random(23)
    for _ in range(20):
        vertices = rand_simplex(rng)
        coeffs = simplex_bernstein(h, vertices)
        low, high = min(coeffs.values()), max(coeffs.values())
        for _ in range(100):
            assert low <= h.evaluate(*at(vertices, rand_barycentric(rng))) <= high


def test_bernstein_coefficients_are_fractions():
    h = h_polynomial()
    for leaf in certify().leaves:
        assert all(type(b) is Fraction for b in simplex_bernstein(h, leaf.vertices).values())
    # integer coefficients on an integer-vertex simplex (common denominator 1): an
    # int / int division would give floats here
    p = Poly.variable(0) - 2 * Poly.variable(1) + 1
    corner = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    rng = random.Random(5)
    for q in (p, p * p):
        coeffs = simplex_bernstein(q, corner)
        assert all(type(b) is Fraction for b in coeffs.values())
        for _ in range(20):
            lam = rand_barycentric(rng)
            assert bernstein_value(coeffs, lam) == q.evaluate(*at(corner, lam))


@pytest.mark.parametrize("k", [2, 4])
def test_bernstein_refuses_a_poly_not_in_three_variables(k):
    for poly in (Poly.variable(0, k=k), Poly.constant(1, k=k), Poly(k=k)):
        with pytest.raises(ValueError, match=f"3 variables, not {k}"):
            simplex_bernstein(poly, DOMAIN_VERTICES)


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


def test_halving_matches_fresh_conversion_on_both_children():
    """De Casteljau halves equal simplex_bernstein on bisect's two children, for every edge."""
    rng = random.Random(18)
    polys = [rand_poly(rng, d) for d in range(5)] + [h_polynomial(), stability_polynomial()]
    simplices = [DOMAIN_VERTICES] + [rand_simplex(rng, den) for den in (7, 64, 360)]
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for p in polys:
        n = max(sum(m) for m in p.coeffs)
        for vertices in simplices:
            coeffs = simplex_bernstein(p, vertices)
            den = lcm(*(b.denominator for b in coeffs.values()))
            nums = {a: int(b * den) for a, b in coeffs.items()}
            for edge in edges:
                halves = halve_bernstein(nums, *edge)
                for child, half in zip(bisect(vertices, edge), halves):
                    assert all(type(v) is int for v in half.values())
                    got = {a: Fraction(v, den << n) for a, v in half.items()}
                    assert got == simplex_bernstein(p, child)


def test_bernstein_equals_the_poly_product_oracle():
    """The packed-key conversion equals the one of Poly products: values, types and key order."""
    rng = random.Random(19)
    polys = [rand_poly(rng, d) for d in range(9)] + [
        Poly.variable(0) ** 9,
        Poly(),
        Poly.constant(Fraction(-5, 7)),
        h_polynomial(),
        stability_polynomial(),
    ]
    simplices = [DOMAIN_VERTICES] + [signed_simplex(rng, den) for den in (7, 64, 360)]
    for p in polys:
        for vertices in simplices:
            got = simplex_bernstein(p, vertices)
            assert list(got.items()) == list(bernstein_oracle(p, vertices).items())
            assert all(type(b) is Fraction for b in got.values())

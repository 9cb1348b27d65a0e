import json
from fractions import Fraction
from math import factorial, lcm, prod

import pytest

import trilag.certify as certify_module
from helpers import (
    DOMAIN_VERTICES,
    Poly,
    bernstein_oracle,
    elevate_oracle,
    g_polynomial_oracle,
    h_oracle,
    multi_indices,
    packed_coefficients,
    point_in_domain,
    power_form,
    stability_polynomial,
)
from trilag.certify import BASE, CERTIFIED, DOMAIN, INDETERMINATE, MAX_DEGREE, _elevate, _h96_form, certify

HALF = Fraction(1, 2)


def fresh_conversion(p: Poly, degree: int) -> dict:
    """p's Bernstein coefficients on D at this degree, converted from scratch."""
    return bernstein_oracle(p, DOMAIN_VERTICES, degree)


def shift_h(monkeypatch, shift: int) -> Poly:
    """Make certify prove 96 h + shift in place of 96 h, and return h + shift/96
    in Fractions: the form gains shift 6^4 E^4, E = l_0 + l_1 + l_2 + l_3 = 1."""
    build = certify_module._h96_form

    def shifted():
        form, power = build(), {0: shift * 6**4}
        for _ in range(4):
            power = _elevate(power)
        return {key: c + power[key] for key, c in form.items()}

    monkeypatch.setattr(certify_module, "_h96_form", shifted)
    return h_oracle() + Fraction(shift, 96)


def prove(monkeypatch, p: Poly) -> Poly:
    """Make certify prove 96 k p, p of degree 4, in place of 96 h, k the least
    positive int that makes it integral, and return k p, the polynomial it
    reports on.  The form of 96 k p comes from the tests' term-dict engine."""
    k = lcm(*(Fraction(96 * c).denominator for c in p.coeffs.values()))
    terms = {m: int(96 * k * c) for m, c in p.coeffs.items() if c}
    assert max(map(sum, terms)) == 4
    monkeypatch.setattr(certify_module, "_h96_form", lambda: power_form(terms)[0])
    return k * p


def report_oracle(p: Poly, cap: int, convert=elevate_oracle) -> dict:
    """certify's report from Fraction coefficients at each degree (by default by
    elevation): the first degree from p's own with no negative coefficient,
    else the cap (or p's degree, if higher)."""
    m = p.degree()
    coeffs = convert(p, m)
    while m < cap and min(coeffs.values()) < 0:
        m += 1
        coeffs = convert(p, m)
    least = min(coeffs.values())
    return {
        "result": CERTIFIED if least >= 0 else INDETERMINATE,
        "degree": m,
        "coefficients": len(coeffs),
        "least": str(least),
        "least_at": list(next(a for a, b in coeffs.items() if b == least)),
    }


def test_point_domain_checks():
    assert point_in_domain(HALF, HALF, 0)
    assert point_in_domain(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert not point_in_domain(Fraction(1, 4), HALF, 0)
    assert not point_in_domain(HALF, HALF, HALF)
    assert all(point_in_domain(*v) for v in DOMAIN_VERTICES)


def test_the_provers_domain_is_the_papers_d_over_6():
    """certify converts on integers: each of DOMAIN's vertices over 6 is D's
    vertex, in order, and 6 is the least common denominator of D's vertices."""
    assert all(type(c) is int for v in DOMAIN for c in v)
    assert tuple(tuple(Fraction(c, 6) for c in v) for v in DOMAIN) == DOMAIN_VERTICES
    assert lcm(*(c.denominator for v in DOMAIN_VERTICES for c in v)) == 6


def test_negative_counts_and_the_first_certified_degree():
    """h has 3, 5, 3, 1 and 0 negative coefficients at degrees 4..8, and the
    stability form first has none at degree 9: the prover's packed engine
    counts the same, and certify reports h's degree 8."""
    counts = {}
    for name, p, degrees in (("h", h_oracle(), range(4, 9)),
                             ("stability", stability_polynomial(), range(4, 10))):
        counts[name] = [sum(b < 0 for b in elevate_oracle(p, m).values()) for m in degrees]
        assert [sum(b < 0 for b in packed_coefficients(p.coeffs, m).values()) for m in degrees] == counts[name]
    assert counts == {"h": [3, 5, 3, 1, 0], "stability": [3, 5, 6, 3, 1, 0]}
    assert certify()["degree"] == 4 + counts["h"].index(0)
    coeffs = elevate_oracle(h_oracle(), 8)
    assert len(coeffs) == 165
    # six are 0, the one at the vertex (1/2, 1/2, 0) among them
    assert [a for a, b in coeffs.items() if b == 0] == [
        (0, 0, 7, 1), (0, 0, 8, 0), (0, 1, 6, 1), (0, 1, 7, 0), (1, 0, 7, 0), (1, 1, 6, 0),
    ]


def test_stability_bound_with_sharp_constant():
    """3/32 - g >= |x - (1/2, 1/2, 0)|^2 / 144 on D, and 1/144 cannot be raised.

    The bound's coefficients on D, from the prover's packed engine and from
    Fraction elevation, have a negative one at degree 8 and none at degree
    9, where the least of 220 is 0.  At the vertex (1/3, 1/3, 1/3),
    h = 1/864 and the squared distance is 1/6, so the bound is tight there
    and false for 1/143: that form's coefficient at the vertex is its
    negative value there at every degree, so no degree certifies it.
    """
    h = h_oracle()
    x1, x2, x3 = (Poly.variable(d) for d in range(3))
    dist = (x1 - HALF) ** 2 + (x2 - HALF) ** 2 + x3**2
    third = Fraction(1, 3)
    stable = stability_polynomial()
    at8, at9 = (packed_coefficients(stable.coeffs, m) for m in (8, 9))
    assert at8 == elevate_oracle(stable, 8) and at9 == elevate_oracle(stable, 9)
    assert min(at8.values()) < 0 and (len(at9), min(at9.values())) == (220, 0)
    assert stable.evaluate(third, third, third) == 0
    loose = h - Fraction(1, 143) * dist
    value = loose.evaluate(third, third, third)
    assert value == Fraction(1, 864) - Fraction(1, 6 * 143) < 0
    assert packed_coefficients(loose.coeffs, 9) == elevate_oracle(loose, 9)
    for m in (4, 9, 16, MAX_DEGREE):
        assert packed_coefficients(loose.coeffs, m)[(0, 0, 0, m)] == value


def test_insufficient_depth_is_indeterminate(monkeypatch):
    """Fewer than 4 elevation steps from h's degree 4 leave a negative
    coefficient: a cap below degree 8 ends INDETERMINATE, and a cap below
    h's own degree converts h at degree 4 and does not elevate.  certify()
    converts the integer 96 h, and its report is the one of the Fraction h."""
    for cap, degree, least in ((7, 7, None), (4, 4, "-1/32"), (0, 4, "-1/32")):
        monkeypatch.setattr(certify_module, "MAX_DEGREE", cap)
        cert = certify()
        assert (cert["result"], cert["degree"]) == (INDETERMINATE, degree)
        assert cert == report_oracle(h_oracle(), cap)
        if least is not None:
            assert cert["least"] == least


def test_degree_cap_ends_a_run_that_cannot_certify(monkeypatch):
    """h - 1/96 is negative at and near (1/2, 1/2, 0), so no degree certifies
    it: the run ends at MAX_DEGREE, with the vertex's coefficient -1/96 least."""
    shift_h(monkeypatch, -1)
    cert = certify()
    assert cert == {
        "result": INDETERMINATE,
        "degree": MAX_DEGREE,
        "coefficients": (MAX_DEGREE + 1) * (MAX_DEGREE + 2) * (MAX_DEGREE + 3) // 6,
        "least": "-1/96",
        "least_at": [0, 0, MAX_DEGREE - 1, 1],
    }


def test_certificate_tiling_and_coverage():
    """The certificate's one form covers D: at the reported degree it has one
    coefficient per multi-index, and sum_a b[a] B_a is h at points across D,
    so its least coefficient 0 bounds h from below on all of D."""
    h = h_oracle()
    cert = certify()
    m = cert["degree"]
    coeffs = fresh_conversion(h, m)
    assert list(coeffs) == multi_indices(m)
    assert cert["coefficients"] == len(coeffs) == (m + 1) * (m + 2) * (m + 3) // 6
    assert cert["least"] == str(min(coeffs.values())) == "0"
    assert coeffs[tuple(cert["least_at"])] == 0
    assert all(point_in_domain(*v) for v in DOMAIN_VERTICES)
    # the barycentric grid l = c / 6, |c| = 6, vertices and interior points of D
    for c in multi_indices(6):
        bary = [Fraction(ci, 6) for ci in c]
        x = tuple(sum(li * v[d] for li, v in zip(bary, DOMAIN_VERTICES)) for d in range(3))
        assert point_in_domain(*x)
        value = sum(
            b * (factorial(m) // prod(factorial(e) for e in a)) * prod(li**e for li, e in zip(bary, a))
            for a, b in coeffs.items()
        )
        assert value == h.evaluate(*x)


def test_certificate_json_shape():
    js = certify()
    assert js == {"result": CERTIFIED, "degree": 8, "coefficients": 165, "least": "0", "least_at": [0, 0, 7, 1]}
    assert certify() == js
    assert json.loads(json.dumps(js)) == js


def test_h_nonnegative_on_domain_grid():
    h = h_oracle()
    den = 48
    points = [
        (Fraction(a, den), Fraction(b, den), Fraction(c, den))
        for a in range(den + 1)
        for b in range(a + 1)
        for c in range(min(b, den - a - b) + 1)
    ]
    assert len(points) == 3789
    zeros = [pt for pt in points if h.evaluate(*pt) == 0]
    assert zeros == [(HALF, HALF, Fraction(0))]
    assert all(h.evaluate(*pt) >= 0 for pt in points)


@pytest.mark.parametrize(
    "shift, cap, shape",
    [
        (0, MAX_DEGREE, (CERTIFIED, 8, "0")),
        (None, MAX_DEGREE, (CERTIFIED, 9, "0")),
        (1, MAX_DEGREE, (CERTIFIED, 5, "1/240")),
        (0, 4, (INDETERMINATE, 4, "-1/32")),
        (-1, 6, (INDETERMINATE, 6, "-1/60")),
        (-1, 10, (INDETERMINATE, 10, "-1/96")),
        (-1, 13, (INDETERMINATE, 13, "-1/96")),
    ],
    ids=["h", "stability", "h+1/96", "depth0", "h-1/96-depth2", "h-1/96-depth6", "h-1/96-depth9"],
)
def test_certify_matches_fresh_conversion_and_elevation(monkeypatch, shift, cap, shape):
    """certify's report is the one a fresh Fraction conversion on D gives at
    each degree, and the one Fraction elevation gives.

    certify proves 96 h + shift at the cap MAX_DEGREE, h's degree 4 plus
    the depth in the id; a shift of None makes it prove the stability form
    times 3 * 96, whose 0 least coefficient the factor 3 leaves as it is.
    The cases cover the three signs of the least coefficient: 0 (found as
    the first zero), positive and negative (found by weighing every
    coefficient).
    """
    if shift is None:
        p = prove(monkeypatch, stability_polynomial())
    else:
        p = shift_h(monkeypatch, shift)
    monkeypatch.setattr(certify_module, "MAX_DEGREE", cap)
    cert = certify()
    assert (cert["result"], cert["degree"], cert["least"]) == shape
    assert cert == report_oracle(p, cap, fresh_conversion) == report_oracle(p, cap)


def test_certify_converts_once_on_the_domain(monkeypatch):
    calls = []
    build = certify_module._h96_form

    def counted():
        calls.append("_h96_form")
        return build()

    # certify looks the builder up in its own module's namespace
    monkeypatch.setattr(certify_module, "_h96_form", counted)
    monkeypatch.setattr(certify_module, "MAX_DEGREE", 12)
    shift_h(monkeypatch, -1)
    assert certify()["degree"] == 12
    assert calls == ["_h96_form"]  # one form


def test_the_h96_form_is_the_papers_h_on_d():
    """_h96_form is dense at degree 4 with int values, and its coefficient of l^a is
    6^4 96 4!/a! times the Bernstein coefficient b[a] of the paper's
    3/32 - g, converted in Fractions; the tests' term-dict engine gives the
    same form from 96 h's terms."""
    form = _h96_form()
    h = Poly.constant(Fraction(3, 32)) - g_polynomial_oracle()
    coeffs = bernstein_oracle(h, DOMAIN_VERTICES, 4)
    assert len(form) == len(multi_indices(4)) == len(coeffs)
    assert all(type(c) is int for c in form.values())
    for a, b in coeffs.items():
        weight = Fraction(96 * 6**4 * factorial(4), prod(map(factorial, a)))
        assert form[a[1] + BASE * (a[2] + BASE * a[3])] == weight * b
    assert form == power_form({m: int(96 * c) for m, c in h.coeffs.items()})[0]

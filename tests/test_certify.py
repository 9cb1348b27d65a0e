import json
import random
from fractions import Fraction

import pytest

import trilag.certify as certify_module
from helpers import certify_oracle, longest_edge_oracle, stability_polynomial
from trilag.certify import (
    CERTIFIED,
    DOMAIN_VERTICES,
    INDETERMINATE,
    bisect,
    certify,
    leaf_simplex,
    leaf_volume_total,
    longest_edge,
    point_in_domain,
    simplex_volume,
)
from trilag.polynomials import Poly, _bernstein_numerators, h_polynomial

HALF = Fraction(1, 2)


def test_point_domain_checks():
    assert point_in_domain(HALF, HALF, 0)
    assert point_in_domain(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert not point_in_domain(Fraction(1, 4), HALF, 0)
    assert not point_in_domain(HALF, HALF, HALF)


def test_cell_split_longest_edge():
    # D's longest edge joins (0,0,0) and (1,0,0)
    low, high = bisect(DOMAIN_VERTICES, longest_edge(DOMAIN_VERTICES))
    mid = (HALF, Fraction(0), Fraction(0))
    assert low == (DOMAIN_VERTICES[0], mid) + DOMAIN_VERTICES[2:]
    assert high == (mid,) + DOMAIN_VERTICES[1:]
    assert simplex_volume(low) == simplex_volume(high) == simplex_volume(DOMAIN_VERTICES) / 2
    # equal edges: the lowest vertex-index pair is split
    cube_corner = tuple(
        tuple(Fraction(c) for c in v) for v in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    low, _ = bisect(cube_corner, longest_edge(cube_corner))
    assert low[2] == (HALF, HALF, Fraction(0))


def test_longest_edge_matches_the_fraction_oracle():
    """Integer squared lengths pick the edge of the Fraction ones, ties included."""
    rng = random.Random(19)
    deep = certify(8, h_polynomial() - Fraction(1, 1000))
    simplices = [DOMAIN_VERTICES] + [leaf_simplex(leaf) for leaf in deep["leaves"]]
    for den in (1, 2, 3, 7, 64, 360):  # small denominators make many ties
        for _ in range(200):
            coords = [Fraction(rng.randint(-den, den), den) for _ in range(12)]
            simplices.append(tuple(tuple(coords[3 * i : 3 * i + 3]) for i in range(4)))
    picks = [longest_edge(s) for s in simplices]
    assert picks == [longest_edge_oracle(s) for s in simplices]
    assert len(set(picks)) == 6


def test_constant_poly_certifies_at_depth_zero():
    cert = certify(max_depth=10, poly=Poly.constant(Fraction(3, 32)))
    assert cert["result"] == CERTIFIED
    assert len(cert["leaves"]) == 1
    assert cert["leaves"][0]["depth"] == 0
    assert cert["leaves"][0]["bound"] == "3/32"
    assert cert["simplices_processed"] == 1
    assert cert["max_depth_reached"] == 0


def test_stability_bound_with_sharp_constant():
    """3/32 - g >= |x - (1/2, 1/2, 0)|^2 / 144 on D, and 1/144 cannot be raised.

    The bound is certified with the same single bisection as h.  At the
    vertex (1/3, 1/3, 1/3), h = 1/864 and the squared distance is 1/6, so
    the bound is tight there and false for 1/143 (which is never run
    through certify: it cannot certify and would only stop at max_depth).
    """
    h = h_polynomial()
    x1, x2, x3 = (Poly.variable(d) for d in range(3))
    dist = (x1 - HALF) ** 2 + (x2 - HALF) ** 2 + x3**2
    third = Fraction(1, 3)
    stable = stability_polynomial()
    cert = certify(poly=stable)
    assert cert["result"] == CERTIFIED
    assert (cert["simplices_processed"], cert["max_depth_reached"], len(cert["leaves"])) == (3, 1, 2)
    assert stable.evaluate(third, third, third) == 0
    assert (h - Fraction(1, 143) * dist).evaluate(third, third, third) < 0


def test_insufficient_depth_is_indeterminate():
    cert = certify(max_depth=0)
    assert cert["result"] == INDETERMINATE
    assert len(cert["leaves"]) == 1
    assert leaf_simplex(cert["leaves"][0]) == DOMAIN_VERTICES
    assert cert["leaves"][0]["bound"] == "-1/32"


def test_simplex_cap_ends_a_run_that_cannot_certify(monkeypatch):
    """h - 1/1000 is negative on a set of positive volume, so without the cap
    depth 40 means about 2^40 simplices.  Past the cap the simplices left on
    the stack, at most one per depth, become leaves: they still tile D."""
    cap = 100
    monkeypatch.setattr(certify_module, "MAX_SIMPLICES", cap)
    cert = certify(40, h_polynomial() - Fraction(1, 1000))
    assert cert["result"] == INDETERMINATE
    assert cap <= cert["simplices_processed"] <= cap + 41
    assert leaf_volume_total(cert) == Fraction(1, 36)


def test_certificate_tiling_and_coverage():
    cert = certify()
    assert cert["result"] == CERTIFIED
    assert (cert["simplices_processed"], cert["max_depth_reached"], len(cert["leaves"])) == (3, 1, 2)
    assert leaf_volume_total(cert) == Fraction(1, 36) == simplex_volume(DOMAIN_VERTICES)
    assert all(leaf["bound"] == "0" for leaf in cert["leaves"])
    # every leaf lies in D: D is convex, so its vertices suffice
    assert all(point_in_domain(*v) for leaf in cert["leaves"] for v in leaf_simplex(leaf))
    keys = [leaf_simplex(leaf) for leaf in cert["leaves"]]
    assert keys == sorted(keys)


def test_certificate_json_shape():
    js = certify()
    assert set(js) == {"result", "simplices_processed", "max_depth_reached", "leaves"}
    assert js["result"] == CERTIFIED
    assert js["leaves"][0] == {
        "vertices": [["0", "0", "0"], ["1/2", "0", "0"], ["1/2", "1/2", "0"], ["1/3", "1/3", "1/3"]],
        "depth": 1,
        "bound": "0",
    }
    assert certify() == js
    # the reader takes the report back from its JSON text, as certify --out writes it
    loaded = json.loads(json.dumps(js))
    assert loaded == js
    assert leaf_simplex(loaded["leaves"][0])[1] == (HALF, Fraction(0), Fraction(0))
    assert leaf_volume_total(loaded) == Fraction(1, 36)


def test_h_nonnegative_on_domain_grid():
    h = h_polynomial()
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
    "max_depth, poly, shape",
    [
        (40, None, (CERTIFIED, 3)),
        (40, stability_polynomial(), (CERTIFIED, 3)),
        (40, Poly.constant(Fraction(3, 32)), (CERTIFIED, 1)),
        (0, None, (INDETERMINATE, 1)),
        (6, h_polynomial() - Fraction(1, 1000), (INDETERMINATE, 41)),
        (9, h_polynomial() - Fraction(1, 1000), (INDETERMINATE, 129)),
    ],
    ids=["h", "stability", "constant", "depth0", "h-1/1000-depth6", "h-1/1000-depth9"],
)
def test_certify_matches_fresh_conversion_on_every_simplex(max_depth, poly, shape):
    """Halving from the parent gives the certificate of converting each simplex afresh."""
    cert = certify(max_depth=max_depth, poly=poly)
    assert (cert["result"], cert["simplices_processed"]) == shape
    assert cert == certify_oracle(max_depth=max_depth, poly=poly)


def test_certify_converts_once_on_the_domain(monkeypatch):
    calls = []

    def counted(p, vertices):
        calls.append(vertices)
        return _bernstein_numerators(p, vertices)

    # certify looks the conversion up in its own module's namespace
    monkeypatch.setattr(certify_module, "_bernstein_numerators", counted)
    assert certify(max_depth=6, poly=h_polynomial() - Fraction(1, 1000))["simplices_processed"] == 41
    assert calls == [DOMAIN_VERTICES]


@pytest.mark.parametrize("k", [2, 4])
def test_certify_refuses_a_poly_not_in_three_variables(k):
    for poly in (Poly.variable(0, k=k), Poly.constant(1, k=k)):
        with pytest.raises(ValueError, match=f"3 variables, not {k}"):
            certify(poly=poly)


def test_certify_refuses_a_malformed_monomial():
    for monomial in ((-1, 0, 0), (1, 0), (1, 0, 0, 0), (0.5, 0, 0)):
        with pytest.raises(ValueError, match="nonnegative int exponents"):
            certify(poly=Poly({monomial: 1}))

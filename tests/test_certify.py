from fractions import Fraction

from trilag.certify import (
    CERTIFIED,
    DOMAIN_VERTICES,
    INDETERMINATE,
    bisect,
    certify,
    leaf_volume_total,
    point_in_domain,
    simplex_volume,
)
from trilag.polynomials import Poly, h_polynomial

HALF = Fraction(1, 2)


def test_point_domain_checks():
    assert point_in_domain(HALF, HALF, 0)
    assert point_in_domain(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert not point_in_domain(Fraction(1, 4), HALF, 0)
    assert not point_in_domain(HALF, HALF, HALF)


def test_cell_split_longest_edge():
    # D's longest edge joins (0,0,0) and (1,0,0)
    low, high = bisect(DOMAIN_VERTICES)
    mid = (HALF, Fraction(0), Fraction(0))
    assert low == (DOMAIN_VERTICES[0], mid) + DOMAIN_VERTICES[2:]
    assert high == (mid,) + DOMAIN_VERTICES[1:]
    assert simplex_volume(low) == simplex_volume(high) == simplex_volume(DOMAIN_VERTICES) / 2
    # equal edges: the lowest vertex-index pair is split
    cube_corner = tuple(
        tuple(Fraction(c) for c in v) for v in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    low, _ = bisect(cube_corner)
    assert low[2] == (HALF, HALF, Fraction(0))


def test_constant_poly_certifies_at_depth_zero():
    cert = certify(max_depth=10, poly=Poly.constant(Fraction(3, 32)))
    assert cert.result == CERTIFIED
    assert len(cert.leaves) == 1
    assert cert.leaves[0].depth == 0
    assert cert.leaves[0].bound == Fraction(3, 32)
    assert cert.simplices_processed == 1
    assert cert.max_depth_reached == 0


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
    stable = h - Fraction(1, 144) * dist
    cert = certify(poly=stable)
    assert cert.result == CERTIFIED
    assert (cert.simplices_processed, cert.max_depth_reached, len(cert.leaves)) == (3, 1, 2)
    assert stable.evaluate(third, third, third) == 0
    assert (h - Fraction(1, 143) * dist).evaluate(third, third, third) < 0


def test_insufficient_depth_is_indeterminate():
    cert = certify(max_depth=0)
    assert cert.result == INDETERMINATE
    assert len(cert.leaves) == 1
    assert cert.leaves[0].vertices == DOMAIN_VERTICES
    assert cert.leaves[0].bound == Fraction(-1, 32)


def test_certificate_tiling_and_coverage():
    cert = certify()
    assert cert.result == CERTIFIED
    assert (cert.simplices_processed, cert.max_depth_reached, len(cert.leaves)) == (3, 1, 2)
    assert leaf_volume_total(cert) == Fraction(1, 36) == simplex_volume(DOMAIN_VERTICES)
    assert all(leaf.bound == 0 for leaf in cert.leaves)
    # every leaf lies in D: D is convex, so its vertices suffice
    assert all(point_in_domain(*v) for leaf in cert.leaves for v in leaf.vertices)
    keys = [leaf.vertices for leaf in cert.leaves]
    assert keys == sorted(keys)


def test_certificate_json_shape():
    js = certify().to_jsonable()
    assert set(js) == {"result", "simplices_processed", "max_depth_reached", "leaves"}
    assert js["result"] == CERTIFIED
    assert js["leaves"][0] == {
        "vertices": [["0", "0", "0"], ["1/2", "0", "0"], ["1/2", "1/2", "0"], ["1/3", "1/3", "1/3"]],
        "depth": 1,
        "bound": "0",
    }
    assert certify().to_jsonable() == js


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


"""The end-to-end inequality pipeline and the integer cores of its tail.

Chain: L_CF <= L_BF <= L_BF(final complete) = closed form
       <= trivariate bound at the sorted final weights <= 3/32.

pipeline_report re-checks each link on one instance.  The tail works on
integers: with d the common denominator of the weights and p = d x their
numerators, _closed_form_numerator and _g_numerator give 24 d^4 times the
closed form and the trivariate g, _majorized is the square-sum
majorization and _check_numerators tests that p / d is on the simplex.
The cores do not validate their input.  pipeline_report checks the final
numerators with _check_numerators; the optimizer in trilag.simplex takes
(d, p) from a WeightVector, which validates them.

Everything here is int arithmetic, up to the report's strings, which
_ratio renders; this module, like the modules it imports, loads no numpy.
"""

from __future__ import annotations

from .graphs import OrientedGraph
from .lagrangian import WeightVector, _arc_adjacency, _bf_sums, _cf_numerator, _cf_sums, _check_order
from .reduction import _ratio, _reduce, _trace_rows


def _check_numerators(d: int, p) -> None:
    """Raise unless p / d is on the simplex: every p >= 0 and sum(p) == d."""
    if any(v < 0 for v in p):
        raise ValueError("negative coordinate")
    if sum(p) != d:
        raise ValueError("coordinates must sum to 1")


def _closed_form_numerator(d: int, p) -> int:
    """24 d^4 f(p / d) = 4d(d^3 - sum p^3) - 3(d^2 - sum p^2)^2, unchecked."""
    d2 = d * d
    s2 = sum(v * v for v in p)
    s3 = sum(v * v * v for v in p)
    return 4 * d * (d2 * d - s3) - 3 * (d2 - s2) ** 2


def _g_numerator(d: int, p1: int, p2: int, p3: int) -> int:
    """24 d^4 g(p1/d, p2/d, p3/d) = 4d(d^3 - sum p_i^3) - 3q^2, unchecked,
    with q = d^2 - p1^2 - p2^2 - p3(d - p1 - p2)."""
    d2 = d * d
    q = d2 - p1 * p1 - p2 * p2 - p3 * (d - p1 - p2)
    return 4 * d * (d2 * d - p1**3 - p2**3 - p3**3) - 3 * q * q


def _majorized(d: int, p) -> bool:
    """sum p^2 <= p1^2 + p2^2 + p3(d - p1 - p2) for the numerators p = d x of
    sorted-descending x with at least 3 coordinates, unchecked."""
    p1, p2, p3 = p[:3]
    return sum(v * v for v in p) <= p1 * p1 + p2 * p2 + p3 * (d - p1 - p2)


def pipeline_report(g: OrientedGraph, w: WeightVector) -> dict:
    """Run the whole inequality chain on one instance, re-checking each link exactly.

    Each value is computed once.  One adjacency and one BF triple sum serve
    both L_CF, which subtracts the dominated triples from that sum, and the
    merge chain, which starts from L_BF of the same sums and returns the
    final L_BF on its way; h_at_point is 3/32 - g at that point.

    The links are compared on integers.  With d the weights' denominator,
    which the merges keep, and q the final numerators, sorted descending
    and padded with zeros to three: L_CF = a / 2d^3, L_BF = N / 2d^4, and
    the closed form and g are c / 24d^4 and c_g / 24d^4.  So the links read
    d a <= N_start, N_start <= N_final, 12 N_final == c, the majorization of
    q with c <= c_g, and 32 c_g <= 72 d^4.  No Fraction is made: each value
    is rendered from its numerator and denominator by _ratio.
    """
    _check_order(w, g.n)
    d = w.denominator
    out, adj = _arc_adjacency(g)
    sums = _bf_sums(adj, w.numerators)
    lcf = _cf_numerator(*_cf_sums(out, w.numerators, sums[0]))
    _, final, rows, start, end = _reduce(adj, w, sums)
    _check_numerators(d, final)
    q = sorted(final, reverse=True) + [0] * (3 - len(final))
    closed = _closed_form_numerator(d, final)
    gval = _g_numerator(d, *q[:3])
    d4 = d**4

    links = [
        ("lcf_le_lbf", d * lcf <= start),
        ("lbf_le_final", start <= end),
        ("final_eq_closed_form", 12 * end == closed),
        ("closed_form_le_trivariate", _majorized(d, q) and closed <= gval),
        ("trivariate_le_3_32", 32 * gval <= 72 * d4),
    ]
    return {
        "lagrangian_cf": _ratio(lcf, 2 * d**3),
        "lagrangian_bf": _ratio(start, 2 * d4),
        "reduction_trace": _trace_rows(d, rows),
        "final_order": len(final),
        "final_weights": [_ratio(v, d) for v in final],
        "closed_form_value": _ratio(closed, 24 * d4),
        "trivariate_point": [_ratio(v, d) for v in q[:3]],
        "trivariate_value": _ratio(gval, 24 * d4),
        "h_at_point": _ratio(72 * d4 - 32 * gval, 768 * d4),
        "bound": "3/32",
        "links": [{"name": name, "pass": ok} for name, ok in links],
        "all_pass": all(ok for _, ok in links),
    }

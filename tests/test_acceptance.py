"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Counts and tolerances are pinned here; everything exact is compared with
zero tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""

import random
from fractions import Fraction

import numpy as np

from trilag.certify import CERTIFIED, certify, leaf_volume_total
from trilag.graphs import UndirectedGraph, build_cf, edge_density, underlying
from trilag.harness import enumerate_orientations, orientation_from_index, validate_fdf_family
from trilag.lagrangian import (
    WeightVector,
    _closed_form_numerator,
    _g_numerator,
    lagrangian_bf,
    lagrangian_cf,
    merge_chain,
    pipeline_report,
    uniform_weights,
)
from trilag.polynomials import h_polynomial, simplex_bernstein
from trilag.simplex import gradient, maximize

from helpers import merge_identity_sides, merges_complete, non_edges, rand_graph, rand_orientation, rand_weights

BOUND = Fraction(3, 32)
HALF = Fraction(1, 2)


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_extremal_value():
    w = WeightVector([HALF, HALF])
    cf = Fraction(_closed_form_numerator(w.denominator, w.numerators), 24 * w.denominator**4)
    k2 = lagrangian_bf(UndirectedGraph(2, [(0, 1)]), w)
    _report(
        "criterion 1 (extremal value attained)",
        cf == BOUND and k2 == BOUND,
        f"closed_form=3/32: {cf == BOUND}, L_BF(K2)=3/32: {k2 == BOUND}",
    )


def test_criterion_2_exhaustive_small_orders():
    expected = {3: 27, 4: 729, 5: 59049, 6: 14348907}
    ok = True
    details = []
    for n, count in expected.items():
        report = enumerate_orientations(n)
        good = report["count"] == count and report["violations"] == []
        ok = ok and good
        details.append(f"n={n}: {report['count']} orientations, {len(report['violations'])} violations")
    # n = 6 maxima, each witness re-checked on the object-level path
    density = (report["max_cf_density"], report["max_cf_density_witness"]["index"])
    lcf = (report["max_uniform_lcf"], report["max_uniform_lcf_witness"]["index"])
    density_witness = orientation_from_index(6, density[1])
    lcf_witness = orientation_from_index(6, lcf[1])
    ok = ok and (
        density == ("3/4", 285993)
        and lcf == ("5/54", 2380656)
        and edge_density(density_witness.n, build_cf(density_witness)) == Fraction(3, 4)
        and lagrangian_cf(lcf_witness, uniform_weights(6)) == Fraction(5, 54)
    )
    details.append(
        f"n=6 max CF density {density[0]} at {density[1]}, "
        f"max uniform L_CF {lcf[0]} at {lcf[1]}"
    )
    _report("criterion 2 (exhaustive n=3,4,5,6)", ok, "; ".join(details))


def test_criterion_3_cf_bf_comparison_suite():
    rng = random.Random(2024)
    trials = 10_000
    failures = 0
    for _ in range(trials):
        n = rng.randint(2, 8)
        g = rand_orientation(rng, n)
        w = rand_weights(rng, n)
        lcf = lagrangian_cf(g, w)
        und = underlying(g)
        lbf = lagrangian_bf(und, w)
        quad = Fraction(0)
        for x in range(n):
            s = sum((w[y] for (u, y) in g.arcs if u == x), Fraction(0))
            quad += w[x] * s * s
        esum = sum((w[u] * w[v] for (u, v) in und.edges), Fraction(0))
        identity = (lbf - lcf) == Fraction(1, 2) * quad - Fraction(1, 2) * esum * esum
        if not (lcf <= lbf and identity):
            failures += 1
    _report(
        "criterion 3 (L_CF <= L_BF and difference identity, 10^4 random instances)",
        failures == 0,
        f"{trials} instances, {failures} failures",
    )


def test_criterion_4_merge_suite():
    rng = random.Random(4096)
    trials = 10_000
    failures = 0
    done = 0
    while done < trials:
        n = rng.randint(3, 7)
        g = rand_graph(rng, n, p=rng.random())
        pairs = non_edges(g)
        if not pairs:
            continue
        w = rand_weights(rng, n)
        a, b = pairs[rng.randrange(len(pairs))]
        lhs, rhs = merge_identity_sides(g, w, a, b)
        _, q, rows, _, _ = merge_chain(g, w)
        monotone = all(after >= before for *_, before, after in rows)
        if not (lhs == rhs and monotone and len(rows) <= n - 1 and merges_complete(g, rows, q)):
            failures += 1
        done += 1
    _report(
        "criterion 4 (merge identity and monotone reduction, 10^4 random instances)",
        failures == 0,
        f"{trials} instances, {failures} failures",
    )


def test_criterion_5_optimizer():
    ok = True
    details = []
    rng = np.random.default_rng(555)
    step = 1e-5
    for n in range(2, 13):
        res = maximize(n, restarts=100, seed=0)
        gap = float(BOUND - res.value)
        point = sorted(res.point, reverse=True)
        reference = [0.5, 0.5] + [0.0] * (n - 2)
        dev = max(abs(p - r) for p, r in zip(point, reference))
        grad_ok = True
        for _ in range(100):
            x = rng.dirichlet(np.ones(n))
            grad = gradient(x)
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                s2p = float(np.dot(x + e, x + e))
                s2m = float(np.dot(x - e, x - e))
                fp = (1 - float(np.sum((x + e) ** 3))) / 6 - (1 - s2p) ** 2 / 8
                fm = (1 - float(np.sum((x - e) ** 3))) / 6 - (1 - s2m) ** 2 / 8
                if abs(grad[i] - (fp - fm) / (2 * step)) >= 1e-6:
                    grad_ok = False
        good = res.value <= BOUND and abs(gap) <= 1e-9 and dev <= 1e-4 and grad_ok
        ok = ok and good
        details.append(f"n={n}: gap={gap:.1e}, dev={dev:.1e}")
    _report("criterion 5 (optimizer, n=2..12)", ok, "; ".join(details))


def test_criterion_6_certifier():
    cert = certify()
    h = h_polynomial()
    zero = (HALF, HALF, Fraction(0))
    coeffs_ok = True
    zero_ok = True
    for leaf in cert.leaves:
        coeffs = simplex_bernstein(h, leaf.vertices)
        coeffs_ok = coeffs_ok and min(coeffs.values()) == leaf.bound >= 0
        i = leaf.vertices.index(zero) if zero in leaf.vertices else None
        zero_ok = zero_ok and i is not None and coeffs[tuple(4 * (j == i) for j in range(4))] == 0
    volume = leaf_volume_total(cert)

    rng = random.Random(1000)
    agree = 0
    while agree < 1000:
        vals = sorted((Fraction(rng.randint(0, 96), 96 * rng.randint(1, 4)) for _ in range(3)), reverse=True)
        x1, x2, x3 = vals
        if x1 + x2 + x3 > 1:
            continue
        w = WeightVector([x1, x2, x3, 1 - x1 - x2 - x3])
        g = Fraction(_g_numerator(w.denominator, *w.numerators[:3]), 24 * w.denominator**4)
        if h.evaluate(x1, x2, x3) != BOUND - g:
            break
        agree += 1

    ok = (
        cert.result == CERTIFIED
        and len(cert.leaves) == 2
        and volume == Fraction(1, 36)
        and coeffs_ok
        and zero_ok
        and agree == 1000
    )
    _report(
        "criterion 6 (certifier, simplex Bernstein on D)",
        ok,
        f"result={cert.result}, leaves={len(cert.leaves)}, volume={volume}, "
        f"all coefficients >= 0: {coeffs_ok}, coefficient 0 at (1/2,1/2,0): {zero_ok}, "
        f"h agreement {agree}/1000",
    )


def test_criterion_7_family_check():
    ok = True
    details = []
    c4_free = {4: 723, 5: 56799, 6: 12853407}
    for n in (4, 5, 6):
        report = validate_fdf_family(n)
        good = report["counterexamples"] == [] and report["c4_free_count"] == c4_free[n]
        ok = ok and good
        details.append(
            f"n={n}: {report['c4_free_count']} C4-free of {report['count']}, "
            f"{len(report['counterexamples'])} counterexamples"
        )
    _report("criterion 7 (independent-4-set family check)", ok, "; ".join(details))


def test_criterion_8_pipeline_coherence():
    rng = random.Random(88)
    failures = 0
    for _ in range(100):
        n = rng.randint(2, 8)
        g = rand_orientation(rng, n)
        w = rand_weights(rng, n)
        report = pipeline_report(g, w)
        if not report["all_pass"]:
            failures += 1
    _report(
        "criterion 8 (pipeline chain, 100 random instances)",
        failures == 0,
        f"100 instances, {failures} failures",
    )

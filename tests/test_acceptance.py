"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Counts and tolerances are pinned here; everything exact is compared with
zero tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""

import random
from fractions import Fraction

import numpy as np

from trilag.certify import CERTIFIED, certify
from trilag.graphs import UndirectedGraph, build_cf, edge_density, underlying
from trilag.harness import enumerate_orientations, orientation_from_index, validate_fdf_family
from trilag.lagrangian import (
    WeightVector,
    _closed_form_numerator,
    _g_numerator,
    lagrangian_report,
    pipeline_report,
)
from trilag.simplex import _gradient, maximize

from helpers import (
    DOMAIN_VERTICES,
    bernstein_oracle,
    brute_lagrangian_cf,
    fraction_weights,
    h_oracle,
    merge_chain,
    merge_identity_sides,
    merges_complete,
    non_edges,
    rand_graph,
    rand_orientation,
    rand_weights,
    uniform_weights,
)

BOUND = Fraction(3, 32)
HALF = Fraction(1, 2)
BLOCKS = {3: 1, 4: 1, 5: 3, 6: 729}  # per sweep, 3^(C(n,2) - 9) blocks of 3^9 orientations, one up to n = 4


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_extremal_value():
    w = WeightVector(2, (1, 1))
    cf = Fraction(_closed_form_numerator(w.denominator, w.numerators), 24 * w.denominator**4)
    k2 = Fraction(lagrangian_report(UndirectedGraph(2, [(0, 1)]), w)["lagrangian_bf"]["value"])
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
        good = report["count"] == count and report["violations"] == [] and report["stats"] == {
            "blocks": BLOCKS[n], "scanned": 0}
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
        and brute_lagrangian_cf(lcf_witness, uniform_weights(6)) == Fraction(5, 54)
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
        report = lagrangian_report(g, w)
        lcf, lbf = (Fraction(report[key]["value"]) for key in ("lagrangian_cf", "lagrangian_bf_underlying"))
        und = underlying(g)
        quad = Fraction(0)
        p = w.entries
        for x in range(n):
            s = sum((p[y] for (u, y) in g.arcs if u == x), Fraction(0))
            quad += p[x] * s * s
        esum = sum((p[u] * p[v] for (u, v) in und.edges), Fraction(0))
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
        res = maximize(n, seed=0)
        value = Fraction(res["value_exact"])
        gap = float(BOUND - value)
        point = sorted(res["point"], reverse=True)
        reference = [0.5, 0.5] + [0.0] * (n - 2)
        dev = max(abs(p - r) for p, r in zip(point, reference))
        grad_ok = True
        for _ in range(100):
            x = rng.dirichlet(np.ones(n))
            grad = _gradient(x, (x * x).sum(axis=-1, keepdims=True))
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                s2p = float(np.dot(x + e, x + e))
                s2m = float(np.dot(x - e, x - e))
                fp = (1 - float(np.sum((x + e) ** 3))) / 6 - (1 - s2p) ** 2 / 8
                fm = (1 - float(np.sum((x - e) ** 3))) / 6 - (1 - s2m) ** 2 / 8
                if abs(grad[i] - (fp - fm) / (2 * step)) >= 1e-6:
                    grad_ok = False
        good = value <= BOUND and abs(gap) <= 1e-9 and dev <= 1e-4 and grad_ok
        ok = ok and good
        details.append(f"n={n}: gap={gap:.1e}, dev={dev:.1e}")
    _report("criterion 5 (optimizer, n=2..12)", ok, "; ".join(details))


def test_criterion_6_certifier():
    cert = certify()
    h = h_oracle()
    m = cert["degree"]
    # every coefficient at the reported degree, a fresh conversion of the paper's h = 3/32 - g
    coeffs = bernstein_oracle(h, DOMAIN_VERTICES, m)
    least = min(coeffs.values())
    coeffs_ok = (
        len(coeffs) == cert["coefficients"]
        and least >= 0
        and str(least) == cert["least"]
        and next(a for a, c in coeffs.items() if c == least) == tuple(cert["least_at"])
    )
    i = DOMAIN_VERTICES.index((HALF, HALF, Fraction(0)))
    zero_ok = coeffs[tuple(m * (j == i) for j in range(4))] == 0

    rng = random.Random(1000)
    agree = 0
    while agree < 1000:
        vals = sorted((Fraction(rng.randint(0, 96), 96 * rng.randint(1, 4)) for _ in range(3)), reverse=True)
        x1, x2, x3 = vals
        if x1 + x2 + x3 > 1:
            continue
        w = fraction_weights([x1, x2, x3, 1 - x1 - x2 - x3])
        g = Fraction(_g_numerator(w.denominator, *w.numerators[:3]), 24 * w.denominator**4)
        if h.evaluate(x1, x2, x3) != BOUND - g:
            break
        agree += 1

    ok = (
        cert["result"] == CERTIFIED
        and m == 8
        and coeffs_ok
        and zero_ok
        and agree == 1000
    )
    _report(
        "criterion 6 (certifier, Bernstein degree elevation on D)",
        ok,
        f"result={cert['result']}, degree={m}, coefficients={len(coeffs)}, "
        f"all coefficients >= 0: {coeffs_ok}, coefficient 0 at (1/2,1/2,0): {zero_ok}, "
        f"h agreement {agree}/1000",
    )


def test_criterion_7_family_check():
    ok = True
    details = []
    c4_free = {4: 723, 5: 56799, 6: 12853407}
    for n in (4, 5, 6):
        report = validate_fdf_family(n)
        good = (report["counterexamples"] == [] and report["c4_free_count"] == c4_free[n]
                and report["stats"] == {"blocks": BLOCKS[n], "scanned": 0})
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

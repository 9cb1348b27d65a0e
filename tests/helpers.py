"""Shared generators and independent brute-force oracles for the test suite.

The oracles recompute everything from the raw definitions (no reuse of
library construction or summation code), so library results are checked
against a second, independently written path.  The one library call of
the merge oracles (neighbor_sums, merge, merge_identity_sides and
reduce_oracle) is lagrangian_bf, itself checked against
brute_lagrangian_bf.  reduce_oracle records each merge as a tuple of the
fields of merge_chain's rows, its rationals as Fractions; chain_fractions
turns merge_chain's integers into that form, and merges_complete replays
merge_chain's rows on the input's edge set.  The pipeline oracles take
L_CF from lagrangian_cf and the closed form, g and the majorization from
the Fraction oracles below, not from the integer cores of trilag.lagrangian
that they check.  trace_to_jsonable renders an oracle trace with
str(Fraction): through pipeline_oracle and reduce_report_oracle it is the
reference for the integer rows and the gcd renderer of pipeline_report
and trilag reduce.
certify_oracle runs the certificate search with a fresh simplex_bernstein
conversion on every simplex, where certify halves its parent's coefficients,
and picks each edge with longest_edge_oracle in Fractions.
bernstein_oracle is the conversion built from Poly products of barycentric
forms, with tuple keys; simplex_bernstein runs it on packed int keys.
g_polynomial_oracle expands the paper's g with Fraction-coefficient Polys.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm

import numpy as np

from trilag.certify import (
    CERTIFIED,
    DOMAIN_VERTICES,
    INDETERMINATE,
    Certificate,
    Leaf,
    Simplex,
    bisect,
)
from trilag.graphs import OrientedGraph, UndirectedGraph, underlying
from trilag.lagrangian import WeightVector, lagrangian_bf, lagrangian_cf
from trilag.polynomials import Poly, h_polynomial, simplex_bernstein


def rand_orientation(rng, n: int) -> OrientedGraph:
    arcs = []
    for (u, v) in itertools.combinations(range(n), 2):
        r = rng.randint(0, 2)
        if r == 1:
            arcs.append((u, v))
        elif r == 2:
            arcs.append((v, u))
    return OrientedGraph(n, arcs)


def rand_graph(rng, n: int, p: float = 0.5) -> UndirectedGraph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return UndirectedGraph(n, edges)


def rand_weights(rng, n: int, max_part: int = 30) -> WeightVector:
    """Random exact rational point on the simplex."""
    while True:
        parts = [rng.randint(0, max_part) for _ in range(n)]
        total = sum(parts)
        if total:
            return WeightVector([Fraction(a, total) for a in parts])


def shaped_orientation(rng, n: int, shape: int) -> OrientedGraph:
    """The empty graph, a transitive tournament (arcs from earlier to later
    vertices of a random order), a random tournament, or a random orientation."""
    if shape == 0:
        return OrientedGraph(n, [])
    if shape == 1:
        order = rng.sample(range(n), n)
        return OrientedGraph(n, itertools.combinations(order, 2))
    if shape == 2:
        return OrientedGraph(n, [(u, v) if rng.random() < 0.5 else (v, u)
                                 for (u, v) in itertools.combinations(range(n), 2)])
    return rand_orientation(rng, n)


def huge_denominator_weights(rng, n: int) -> WeightVector:
    """n >= 2 weights over D = 10^1072, a 1073-digit common denominator:
    1/D, which is in lowest terms, and the rest of 1 cut at random over D."""
    big = 10**1072
    cuts = sorted(rng.randrange(1, big) for _ in range(n - 2))
    parts = [1] + [b - a for a, b in zip([1] + cuts, cuts + [big])]
    rng.shuffle(parts)
    return WeightVector([Fraction(x, big) for x in parts])


def all_orientations(n: int):
    """Every labeled orientation on n vertices (3^C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (u, v), s in zip(pairs, states):
            if s == 1:
                arcs.append((u, v))
            elif s == 2:
                arcs.append((v, u))
        yield OrientedGraph(n, arcs)


def pair_digits(indices, width: int) -> np.ndarray:
    """Base-3 digits of orientation indices by division, pair slot 0 first: (width x len) int8."""
    x = np.asarray(indices, dtype=np.int64)
    powers = 3 ** np.arange(width, dtype=np.int64).reshape((width,) + (1,) * x.ndim)
    return (x // powers % 3).astype(np.int8)


def relabel(g, perm):
    """Apply a vertex permutation (perm[v] is the new label of v) to an OrientedGraph or UndirectedGraph."""
    pairs = g.arcs if isinstance(g, OrientedGraph) else g.edges
    return type(g)(g.n, ((perm[u], perm[v]) for (u, v) in pairs))


def relabel_triples(triples, perm) -> frozenset:
    """Apply a vertex permutation (perm[v] is the new label of v), keeping triples sorted."""
    return frozenset(tuple(sorted((perm[x], perm[y], perm[z]))) for (x, y, z) in triples)


def has_independent_4set(n: int, triples):
    """Detect four of the vertices 0..n-1 spanning none of the sorted triples.

    Returns (True, quad) with the witness sorted ascending, else
    (False, None).  The object-level oracle of the sweeps' ``independent``
    table.
    """
    if n < 4:
        raise ValueError("independent 4-set check needs at least 4 vertices")
    for quad in itertools.combinations(range(n), 4):
        if not any(sub in triples for sub in itertools.combinations(quad, 3)):
            return True, quad
    return False, None


def brute_cf_terms(g: OrientedGraph, w) -> tuple[Fraction, Fraction, Fraction]:
    """(triple, pair, quadratic) terms of L_CF from the raw definition: classify each triple by hand."""
    triple = Fraction(0)
    for (x, y, z) in itertools.combinations(range(g.n), 3):
        arcs = [
            (u, v) for (u, v) in itertools.permutations((x, y, z), 2) if (u, v) in g.arcs
        ]
        dom = any(
            (a, b) in g.arcs and (a, c) in g.arcs
            for (a, b, c) in ((x, y, z), (y, x, z), (z, x, y))
        )
        if len(arcs) >= 2 and not dom:
            triple += w[x] * w[y] * w[z]
    pair = sum((Fraction(1, 2) * w[u] * w[u] * w[v] for (u, v) in g.arcs), Fraction(0))
    return triple, pair, Fraction(0)


def brute_bf_terms(g: UndirectedGraph, w) -> tuple[Fraction, Fraction, Fraction]:
    """(triple, pair, quadratic) terms of L_BF from the raw definition: triple scan plus edge sums."""
    triple = Fraction(0)
    for (x, y, z) in itertools.combinations(range(g.n), 3):
        k = sum(
            1
            for (a, b) in ((x, y), (x, z), (y, z))
            if (min(a, b), max(a, b)) in g.edges
        )
        if k >= 2:
            triple += w[x] * w[y] * w[z]
    pair = esum = Fraction(0)
    for (u, v) in g.edges:
        pair += Fraction(1, 2) * (w[u] * w[u] * w[v] + w[u] * w[v] * w[v])
        esum += w[u] * w[v]
    return triple, pair, Fraction(1, 2) * esum * esum


def brute_lagrangian_cf(g: OrientedGraph, w) -> Fraction:
    """L_CF from the raw definition."""
    triple, pair, quadratic = brute_cf_terms(g, w)
    return triple + pair - quadratic


def brute_lagrangian_bf(g: UndirectedGraph, w) -> Fraction:
    """L_BF from the raw definition."""
    triple, pair, quadratic = brute_bf_terms(g, w)
    return triple + pair - quadratic


def _check_order(g: UndirectedGraph, w) -> None:
    if len(w) != g.n:
        raise ValueError(f"weight length {len(w)} != vertex count {g.n}")


def non_edges(g: UndirectedGraph) -> list[tuple[int, int]]:
    """Non-adjacent pairs u < v, lexicographically sorted."""
    return [e for e in itertools.combinations(range(g.n), 2) if e not in g.edges]


def neighbor_sums(g: UndirectedGraph, w, a: int, b: int):
    """(S_a, S_b, S_ab): the weight sums over the neighbours of a, of b, and of both."""
    _check_order(g, w)
    near_a, near_b = ({x for x in range(g.n) if (min(v, x), max(v, x)) in g.edges} for v in (a, b))
    return tuple(sum((w[x] for x in near), Fraction(0)) for near in (near_a, near_b, near_a & near_b))


def merge(g: UndirectedGraph, w, a: int, b: int, keep: int):
    """Delete the endpoint of (a, b) other than keep, which gets both weights.

    Returns (graph, weights); the vertices above the deleted one shift down by one.
    """
    _check_order(g, w)
    drop = b if keep == a else a

    def shift(x):
        return x if x < drop else x - 1

    edges = [(shift(u), shift(v)) for (u, v) in g.edges if drop not in (u, v)]
    weights = [w[a] + w[b] if v == keep else w[v] for v in range(g.n) if v != drop]
    return UndirectedGraph(g.n - 1, edges), WeightVector(weights)


def merge_identity_sides(g: UndirectedGraph, w, a: int, b: int):
    """(lhs, rhs) of the merge identity of the non-edge (a, b), with x = w[a], y = w[b]:

    lhs = x L(G_a) + y L(G_b) - (x + y) L(G)
    rhs = x y (x + y) ((1/2)(S_a + S_b - (S_a - S_b)^2) - S_ab)
    """
    s_a, s_b, s_ab = neighbor_sums(g, w, a, b)
    x, y = w[a], w[b]
    lhs = (
        x * lagrangian_bf(*merge(g, w, a, b, keep=a))
        + y * lagrangian_bf(*merge(g, w, a, b, keep=b))
        - (x + y) * lagrangian_bf(g, w)
    )
    rhs = x * y * (x + y) * (Fraction(1, 2) * (s_a + s_b - (s_a - s_b) ** 2) - s_ab)
    return lhs, rhs


def reduce_oracle(g: UndirectedGraph, w: WeightVector):
    """merge_chain at the object level: build both merged graphs.

    Each step merges the lexicographically smallest non-edge both ways,
    evaluates lagrangian_bf of each branch and keeps the larger (ties keep
    the smaller index).  Returns (final graph, final weights, trace, start,
    final): one (pair, kept, branch, S_a, S_b, S_ab, L_before, L_after)
    tuple per merge, in the original labels, and L_BF of the input and of
    the final graph.
    """
    labels = list(range(g.n))
    trace = []
    l_start = l_before = lagrangian_bf(g, w)
    while pairs := non_edges(g):
        a, b = pairs[0]
        s_a, s_b, s_ab = neighbor_sums(g, w, a, b)
        cand_a = merge(g, w, a, b, keep=a)
        cand_b = merge(g, w, a, b, keep=b)
        val_a = lagrangian_bf(*cand_a)
        val_b = lagrangian_bf(*cand_b)
        if val_a >= val_b:
            (g, w), l_after, kept, dropped, branch = cand_a, val_a, a, b, "a"
        else:
            (g, w), l_after, kept, dropped, branch = cand_b, val_b, b, a, "b"
        trace.append(((labels[a], labels[b]), labels[kept], branch, s_a, s_b, s_ab, l_before, l_after))
        del labels[dropped]
        l_before = l_after
    return g, w, trace, l_start, l_before


def chain_fractions(d: int, q, rows, start: int, final: int):
    """merge_chain's integers in the form of reduce_oracle, without the graph:
    (final weights, trace, L_BF of the input, L_BF of the final graph)."""
    scale = 2 * d**4
    trace = [(pair, kept, branch, Fraction(s_a, d), Fraction(s_b, d), Fraction(s_ab, d),
              Fraction(before, scale), Fraction(after, scale))
             for pair, kept, branch, s_a, s_b, s_ab, before, after in rows]
    return WeightVector(Fraction(v, d) for v in q), trace, Fraction(start, scale), Fraction(final, scale)


def merges_complete(g: UndirectedGraph, rows, q) -> bool:
    """Replay merge_chain's rows on the edge set of its input g.

    True when each row merges a non-adjacent pair of surviving vertices and
    keeps one of them, and the len(q) vertices that survive are pairwise
    adjacent in g: a merge deletes the dropped vertex and leaves the kept
    one's edges as they were.
    """
    alive = set(range(g.n))
    for (a, b), kept, *_ in rows:
        if not ({a, b} <= alive and (a, b) not in g.edges and kept in (a, b)):
            return False
        alive.remove(b if kept == a else a)
    return len(alive) == len(q) and all(e in g.edges for e in itertools.combinations(sorted(alive), 2))


def trace_to_jsonable(trace) -> list[dict]:
    """An oracle trace with each rational rendered by str(Fraction)."""
    return [
        {
            "pair": list(pair),
            "kept": kept,
            "branch": branch,
            "S_a": str(s_a),
            "S_b": str(s_b),
            "S_ab": str(s_ab),
            "lagrangian_before": str(before),
            "lagrangian_after": str(after),
        }
        for pair, kept, branch, s_a, s_b, s_ab, before, after in trace
    ]


def reduce_report_oracle(g: UndirectedGraph, w: WeightVector) -> dict:
    """The payload of trilag reduce, from reduce_oracle and trace_to_jsonable."""
    final_graph, final_weights, trace, _, final = reduce_oracle(g, w)
    return {
        "trace": trace_to_jsonable(trace),
        "final_order": final_graph.n,
        "final_weights": [str(v) for v in final_weights],
        "final_lagrangian": str(final),
        "monotone": all(after >= before for *_, before, after in trace),
    }


def closed_form_oracle(x) -> Fraction:
    """Exact closed form (1/6)(1 - sum x^3) - (1/8)(1 - sum x^2)^2 in Fractions."""
    x = [Fraction(v) for v in x]
    if any(v < 0 for v in x):
        raise ValueError("negative coordinate")
    if sum(x) != 1:
        raise ValueError("coordinates must sum to 1")
    s2 = sum((v * v for v in x), Fraction(0))
    s3 = sum((v**3 for v in x), Fraction(0))
    return Fraction(1, 6) * (1 - s3) - Fraction(1, 8) * (1 - s2) ** 2


def trivariate_g_oracle(x1, x2, x3) -> Fraction:
    """g(x1, x2, x3) in Fractions, with the domain check on D."""
    x1, x2, x3 = Fraction(x1), Fraction(x2), Fraction(x3)
    if not (x1 >= x2 >= x3 >= 0 and x1 + x2 + x3 <= 1):
        raise ValueError(f"({x1},{x2},{x3}) outside the sorted domain D")
    return Fraction(1, 6) * (1 - x1**3 - x2**3 - x3**3) - Fraction(1, 8) * (
        1 - x1**2 - x2**2 - x3 * (1 - x1 - x2)
    ) ** 2


def majorization_oracle(w) -> bool:
    """sum x^2 <= x1^2 + x2^2 + x3(1 - x1 - x2) in Fractions, for sorted w on the simplex."""
    w = [Fraction(v) for v in w]
    if len(w) < 3:
        raise ValueError("need at least 3 coordinates (pad with zeros)")
    if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        raise ValueError("weights must be sorted descending")
    closed_form_oracle(w)  # raises off the simplex
    x1, x2, x3 = w[0], w[1], w[2]
    return sum((v * v for v in w), Fraction(0)) <= x1 * x1 + x2 * x2 + x3 * (1 - x1 - x2)


def pipeline_tail_oracle(lcf, lbf, lfinal, final_weights) -> dict:
    """The pipeline report without its trace, from the chain's values in Fractions.

    The closed form, g and the majorization come from closed_form_oracle,
    trivariate_g_oracle and majorization_oracle on the final weights, each
    link is a Fraction comparison, and h is 3/32 - g.
    """
    closed = closed_form_oracle(final_weights)
    wsorted = sorted(final_weights, reverse=True) + [Fraction(0)] * (3 - len(final_weights))
    x1, x2, x3 = wsorted[:3]
    gval = trivariate_g_oracle(x1, x2, x3)
    hval = Fraction(3, 32) - gval
    links = [
        ("lcf_le_lbf", lcf <= lbf),
        ("lbf_le_final", lbf <= lfinal),
        ("final_eq_closed_form", lfinal == closed),
        ("closed_form_le_trivariate", majorization_oracle(wsorted) and closed <= gval),
        ("trivariate_le_3_32", hval >= 0),
    ]
    return {
        "lagrangian_cf": str(lcf),
        "lagrangian_bf": str(lbf),
        "final_order": len(final_weights),
        "final_weights": [str(v) for v in final_weights],
        "closed_form_value": str(closed),
        "trivariate_point": [str(x1), str(x2), str(x3)],
        "trivariate_value": str(gval),
        "h_at_point": str(hval),
        "bound": "3/32",
        "links": [{"name": name, "pass": ok} for name, ok in links],
        "all_pass": all(ok for _, ok in links),
    }


def pipeline_oracle(g: OrientedGraph, w: WeightVector) -> dict:
    """pipeline_report from lagrangian_cf, the object-level reduce_oracle and
    pipeline_tail_oracle."""
    final_graph, final_weights, trace, lbf, lfinal = reduce_oracle(underlying(g), w)
    report = pipeline_tail_oracle(lagrangian_cf(g, w), lbf, lfinal, list(final_weights))
    assert report["final_order"] == final_graph.n
    report["reduction_trace"] = trace_to_jsonable(trace)
    return report


def stability_polynomial() -> Poly:
    """h - |x - (1/2, 1/2, 0)|^2 / 144, the stability form of the certified bound."""
    x1, x2, x3 = (Poly.variable(d) for d in range(3))
    half = Fraction(1, 2)
    return h_polynomial() - Fraction(1, 144) * ((x1 - half) ** 2 + (x2 - half) ** 2 + x3**2)


def g_polynomial_oracle() -> Poly:
    """The paper's g, (1/6)(1 - x1^3 - x2^3 - x3^3) - (1/8)(1 - x1^2 - x2^2 - x3 (1 - x1 - x2))^2.

    Expanded with Fraction-coefficient Polys, as the library did before it
    built g on integers.
    """
    x1, x2, x3 = (Poly.variable(d) for d in range(3))
    one = Poly.constant(1)
    cubic = one - x1**3 - x2**3 - x3**3
    inner = one - x1**2 - x2**2 - x3 * (one - x1 - x2)
    return Fraction(1, 6) * cubic - Fraction(1, 8) * (inner * inner)


def bernstein_oracle(p: Poly, vertices) -> dict[tuple[int, int, int, int], Fraction]:
    """simplex_bernstein from Poly products of the barycentric forms, with tuple keys.

    D x1, D x2, D x3 and D (D the vertices' common denominator) are Polys
    linear in l over k = 4; with S the common denominator of p's
    coefficients, the sum of the terms is S D^n p, and each b[a] is its
    coefficient of l^a over S D^n times the multinomial n!/a!.
    """
    if p.k != 3:
        raise ValueError(f"simplex_bernstein needs a polynomial in 3 variables, not {p.k}")
    n = max((sum(m) for m in p.coeffs), default=0)
    verts = [tuple(Fraction(c) for c in v) for v in vertices]
    den = lcm(*(c.denominator for v in verts for c in v))
    scale = lcm(*(c.denominator for c in p.coeffs.values()))
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]  # the monomial l_i
    linear = [Poly({u: int(v[axis] * den) for u, v in zip(unit, verts)}, 4) for axis in range(3)]
    linear.append(Poly({u: den for u in unit}, 4))
    powers = []  # powers[axis][e] is the e-th power of linear[axis]
    for form in linear:
        row = [Poly.constant(1, 4)]
        for _ in range(n):
            row.append(row[-1] * form)
        powers.append(row)

    total = Poly.constant(0, 4)
    for (i, j, k), c in p.coeffs.items():
        term = powers[0][i] * powers[1][j] * powers[2][k] * powers[3][n - i - j - k]
        total = total + int(c * scale) * term

    coeffs = {}
    for a0 in range(n + 1):
        for a1 in range(n + 1 - a0):
            for a2 in range(n + 1 - a0 - a1):
                a = (a0, a1, a2, n - a0 - a1 - a2)
                multinomial = factorial(n)
                for e in a:
                    multinomial //= factorial(e)
                coeffs[a] = Fraction(total.coeffs.get(a, 0), scale * multinomial * den**n)
    return coeffs


def longest_edge_oracle(simplex: Simplex) -> tuple[int, int]:
    """The longest edge (i, j), i < j, from squared lengths in Fractions.

    Ties go to the lowest pair.
    """
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def length2(pair):
        a, b = simplex[pair[0]], simplex[pair[1]]
        return sum((u - v) ** 2 for u, v in zip(a, b))

    return max(pairs, key=length2)  # max keeps the first of equal keys


def certify_oracle(max_depth: int = 40, poly: Poly | None = None) -> Certificate:
    """certify by converting to Bernstein form afresh on every simplex it visits.

    The same search as trilag.certify.certify (the longest edge, the same
    depth rule), with each simplex's coefficients recomputed by
    simplex_bernstein instead of halved from its parent's, and the edge
    chosen by longest_edge_oracle on the Fraction vertices.
    """
    p = h_polynomial() if poly is None else poly
    stack = [(DOMAIN_VERTICES, 0)]
    leaves: list[Leaf] = []
    processed = 0
    deepest = 0
    while stack:
        simplex, depth = stack.pop()
        processed += 1
        deepest = max(deepest, depth)
        bound = min(simplex_bernstein(p, simplex).values())
        if bound >= 0 or depth >= max_depth:
            leaves.append(Leaf(simplex, depth, bound))
        else:
            children = bisect(simplex, longest_edge_oracle(simplex))
            stack.extend((child, depth + 1) for child in children)
    leaves.sort(key=lambda leaf: leaf.vertices)
    return Certificate(
        result=CERTIFIED if all(leaf.bound >= 0 for leaf in leaves) else INDETERMINATE,
        leaves=leaves,
        simplices_processed=processed,
        max_depth_reached=deepest,
    )


def delete_vertex_oriented(g: OrientedGraph, v: int) -> OrientedGraph:
    def shift(x):
        return x if x < v else x - 1

    return OrientedGraph(
        g.n - 1, [(shift(a), shift(b)) for (a, b) in g.arcs if v not in (a, b)]
    )


def _closed_form_1d(x: np.ndarray) -> float:
    s2 = float(np.sum(x * x))
    s3 = float(np.sum(x**3))
    return (1.0 - s3) / 6.0 - (1.0 - s2) ** 2 / 8.0


def _gradient_1d(x: np.ndarray) -> np.ndarray:
    s2 = float(np.sum(x * x))
    return -(x**2) / 2.0 + (1.0 - s2) * x / 2.0


def _project_1d(v: np.ndarray) -> np.ndarray:
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, n + 1) > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def ascend_one(x: np.ndarray, tol: float, max_iter: int = 4000):
    """Projected gradient ascent with Armijo backtracking from one start.

    The per-start oracle for the batched ``simplex.ascend``, with its own
    vector objective, gradient and projection.  Its sums are plain
    ``np.sum`` reductions, the arithmetic the batch does on each row, not
    BLAS dot products, whose last bits depend on the BLAS kernel.  Returns
    the final point, its objective value, the last residual and the
    converged flag.
    """
    step0 = 6.0
    fx = _closed_form_1d(x)
    residual = np.inf
    for _ in range(max_iter):
        grad = _gradient_1d(x)
        moved = _project_1d(x + step0 * grad)
        residual = float(np.sqrt(np.sum((moved - x) ** 2)) / step0)
        if residual < tol:
            return x, fx, residual, True
        step = step0
        accepted = False
        # Armijo backtracking on the projected step
        for _ in range(60):
            trial = _project_1d(x + step * grad) if step != step0 else moved
            ft = _closed_form_1d(trial)
            if ft > fx + 1e-4 * float(np.sum(grad * (trial - x))):
                x, fx = trial, ft
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return x, fx, residual, residual < tol
    return x, fx, residual, False

"""Shared generators and independent brute-force oracles for the test suite.

The oracles recompute everything from the raw definitions (no reuse of
library construction or summation code), so library results are checked
against a second, independently written path.  Of trilag.lagrangian they
use WeightVector alone; merge_chain is not an oracle but the library's own
route, _reduce on _graph_sums, for the tests that run the chain without a
report.  The merge oracles (neighbor_sums, merge,
merge_identity_sides and reduce_oracle) evaluate every Lagrangian with
brute_lagrangian_bf, the scan of all C(n,3) triples.  reduce_oracle
records each merge as a tuple of the fields of merge_chain's rows, its
rationals as Fractions; chain_fractions turns merge_chain's integers into
that form, and merges_complete replays merge_chain's rows on the input's
edge set.  The pipeline oracles take L_CF from brute_lagrangian_cf and
the closed form, g and the majorization from the Fraction oracles below,
not from the integer cores of trilag.lagrangian that they check.
trace_to_jsonable renders an oracle trace with str(Fraction): through
pipeline_oracle and reduce_report_oracle it is the reference for the
integer rows and the gcd renderer of pipeline_report and trilag reduce.
Poly is the polynomial of the certificate's oracles, a sparse map from
exponent tuples to coefficients whose product adds the tuples; trilag.certify
has no polynomial class, and certify proves 96 h alone, built as a form on
D by its own _h96_form.  bernstein_oracle is the conversion built from Poly
products of barycentric forms, with tuple keys; certify works on packed int
keys.  At a degree above p's it is a fresh conversion, the oracle of
certify's elevation.  elevate_oracle raises bernstein_oracle's coefficients
to a higher degree in Fractions, one degree at a time, where certify
elevates integer numerators on packed keys.  g_polynomial_oracle expands
the paper's g with Fraction-coefficient Polys, and h_oracle is 3/32 minus
it.  None of these shares code with the prover: they call no function of
trilag.certify.  power_form converts a term dict with int coefficients to
its form on D by Horner in the degree, on the prover's packed keys and
with its _mul_packed and _elevate: the tests' term-dict engine, for the
polynomials certify does not build.  packed_coefficients runs power_form
and the prover's _elevate and _bernstein_numerators on a Poly's coeffs
scaled to ints, and makes Fractions for the tests to compare: the tests
reach the stability form and polynomials other than h through it.
certify converts on D alone, as the integers trilag.certify.DOMAIN over 6;
DOMAIN_VERTICES is D in Fractions, the oracles' D, and elevate_oracle and
packed_coefficients convert on it.
parse_weights_oracle parses weights one Fraction per line, through
parse_rational, and takes their lcm itself; parse_weights_text reads p/q
and integer tokens with int().  Both build WeightVector(d, p), the one
constructor.  fraction_weights builds it from rational entries,
uniform_weights the weights 1/n, and the oracles read a vector's Fractions
from its entries.  complete_graph is K_n as an UndirectedGraph.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm
from operator import add

import numpy as np

from trilag.certify import BASE, DOMAIN, _bernstein_numerators, _elevate, _mul_packed
from trilag.fileio import MAX_DENOMINATOR_DIGITS, ParseError, _content_lines, parse_rational
from trilag.graphs import OrientedGraph, UndirectedGraph, underlying
from trilag.lagrangian import WeightVector, _graph_sums, _reduce


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


def fraction_weights(entries) -> WeightVector:
    """The WeightVector of a list of rationals (Fractions or ints), over their lcm."""
    d = lcm(*(v.denominator for v in entries))
    return WeightVector(d, [v.numerator * (d // v.denominator) for v in entries])


def uniform_weights(n: int) -> WeightVector:
    """All entries 1/n, exact."""
    return WeightVector(n, (1,) * n)


def complete_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(n, itertools.combinations(range(n), 2))


def rand_weights(rng, n: int, max_part: int = 30) -> WeightVector:
    """Random exact rational point on the simplex."""
    while True:
        parts = [rng.randint(0, max_part) for _ in range(n)]
        total = sum(parts)
        if total:
            return WeightVector(total, parts)


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
    return WeightVector(big, parts)


def parse_weights_oracle(text: str, expected_n: int, path: str) -> WeightVector:
    """The weight parser on one Fraction per line, from parse_rational, and
    a vector from its entries: the oracle of parse_weights_text, with the
    same checks in the same order, so the same (d, p) or the same ParseError.
    """
    entries = []
    line_nos = []
    denominator = 1
    too_big = None
    for line_no, line in _content_lines(text):
        try:
            w = parse_rational(line)
        except OverflowError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        except (ValueError, ZeroDivisionError):
            raise ParseError(path, line_no, f"bad rational {line!r}") from None
        if w.numerator < 0:
            raise ParseError(path, line_no, f"negative weight {line!r}")
        denominator = lcm(denominator, w.denominator)
        if denominator >= 10**MAX_DENOMINATOR_DIGITS:
            raise ParseError(path, line_no, "common denominator of the weights so far has more than "
                             f"{MAX_DENOMINATOR_DIGITS} digits: their Lagrangians could not be printed")
        if w.numerator > w.denominator and too_big is None:
            too_big = ParseError(path, line_no, f"weight {line!r} exceeds 1")
        entries.append(w)
        line_nos.append(line_no)
    if too_big is not None:
        raise too_big
    last = line_nos[-1] if line_nos else 1
    if len(entries) != expected_n:
        line_no = line_nos[expected_n] if len(entries) > expected_n else last
        raise ParseError(path, line_no, f"expected {expected_n} weights, got {len(entries)}")
    try:
        return WeightVector(denominator, [w.numerator * (denominator // w.denominator) for w in entries])
    except ValueError as exc:
        raise ParseError(path, last, str(exc)) from None


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
    w = w.entries
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
    w = w.entries
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
    if len(w.numerators) != g.n:
        raise ValueError(f"weight length {len(w.numerators)} != vertex count {g.n}")


def non_edges(g: UndirectedGraph) -> list[tuple[int, int]]:
    """Non-adjacent pairs u < v, lexicographically sorted."""
    return [e for e in itertools.combinations(range(g.n), 2) if e not in g.edges]


def neighbor_sums(g: UndirectedGraph, w, a: int, b: int):
    """(S_a, S_b, S_ab): the weight sums over the neighbours of a, of b, and of both."""
    _check_order(g, w)
    w = w.entries
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
    p = w.numerators
    weights = [p[a] + p[b] if v == keep else p[v] for v in range(g.n) if v != drop]
    return UndirectedGraph(g.n - 1, edges), WeightVector(w.denominator, weights)


def merge_identity_sides(g: UndirectedGraph, w, a: int, b: int):
    """(lhs, rhs) of the merge identity of the non-edge (a, b), with x = w[a], y = w[b]:

    lhs = x L(G_a) + y L(G_b) - (x + y) L(G)
    rhs = x y (x + y) ((1/2)(S_a + S_b - (S_a - S_b)^2) - S_ab)
    """
    s_a, s_b, s_ab = neighbor_sums(g, w, a, b)
    x, y = w.entries[a], w.entries[b]
    lhs = (
        x * brute_lagrangian_bf(*merge(g, w, a, b, keep=a))
        + y * brute_lagrangian_bf(*merge(g, w, a, b, keep=b))
        - (x + y) * brute_lagrangian_bf(g, w)
    )
    rhs = x * y * (x + y) * (Fraction(1, 2) * (s_a + s_b - (s_a - s_b) ** 2) - s_ab)
    return lhs, rhs


def reduce_oracle(g: UndirectedGraph, w: WeightVector):
    """merge_chain at the object level: build both merged graphs.

    Each step merges the lexicographically smallest non-edge both ways,
    evaluates brute_lagrangian_bf of each branch and keeps the larger (ties
    keep the smaller index).  Returns (final graph, final weights, trace, start,
    final): one (pair, kept, branch, S_a, S_b, S_ab, L_before, L_after)
    tuple per merge, in the original labels, and L_BF of the input and of
    the final graph.
    """
    labels = list(range(g.n))
    trace = []
    l_start = l_before = brute_lagrangian_bf(g, w)
    while pairs := non_edges(g):
        a, b = pairs[0]
        s_a, s_b, s_ab = neighbor_sums(g, w, a, b)
        cand_a = merge(g, w, a, b, keep=a)
        cand_b = merge(g, w, a, b, keep=b)
        val_a = brute_lagrangian_bf(*cand_a)
        val_b = brute_lagrangian_bf(*cand_b)
        if val_a >= val_b:
            (g, w), l_after, kept, dropped, branch = cand_a, val_a, a, b, "a"
        else:
            (g, w), l_after, kept, dropped, branch = cand_b, val_b, b, a, "b"
        trace.append(((labels[a], labels[b]), labels[kept], branch, s_a, s_b, s_ab, l_before, l_after))
        del labels[dropped]
        l_before = l_after
    return g, w, trace, l_start, l_before


def merge_chain(g, w: WeightVector):
    """The integers (d, q, rows, N_start, N_final) of trilag's merge chain of g,
    or of an orientation's underlying graph, at w: the route of reduce_report."""
    return _reduce(*_graph_sums(g, w), w)


def chain_fractions(d: int, q, rows, start: int, final: int):
    """merge_chain's integers in the form of reduce_oracle, without the graph:
    (final weights, trace, L_BF of the input, L_BF of the final graph)."""
    scale = 2 * d**4
    trace = [(pair, kept, branch, Fraction(s_a, d), Fraction(s_b, d), Fraction(s_ab, d),
              Fraction(before, scale), Fraction(after, scale))
             for pair, kept, branch, s_a, s_b, s_ab, before, after in rows]
    return WeightVector(d, q), trace, Fraction(start, scale), Fraction(final, scale)


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
        "final_weights": [str(v) for v in final_weights.entries],
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
    """pipeline_report from brute_lagrangian_cf, the object-level reduce_oracle
    and pipeline_tail_oracle."""
    final_graph, final_weights, trace, lbf, lfinal = reduce_oracle(underlying(g), w)
    report = pipeline_tail_oracle(brute_lagrangian_cf(g, w), lbf, lfinal, list(final_weights.entries))
    assert report["final_order"] == final_graph.n
    report["reduction_trace"] = trace_to_jsonable(trace)
    return report


class Poly:
    """Polynomial in k variables as a sparse map exponent tuple -> int or Fraction.

    k is fixed when the polynomial is built, and every monomial must be a
    tuple of k nonnegative ints.  Integer coefficients stay integers under
    +, - and *: every sum starts from the int 0.  Any other coefficient or
    scalar is made a Fraction, exactly, on the way in.  The product adds
    exponent tuples, term by term, with no packing.
    """

    __slots__ = ("coeffs", "k")

    def __init__(self, coeffs=None, k: int = 3) -> None:
        self.coeffs = {}
        self.k = k
        for m, c in (coeffs or {}).items():
            if not (
                type(m) is tuple and len(m) == k and all(type(e) is int and e >= 0 for e in m)
            ):
                raise ValueError(
                    f"monomial {m!r} is not a tuple of k = {k} nonnegative int exponents"
                )
            if c:
                self.coeffs[m] = c if type(c) is int or type(c) is Fraction else Fraction(c)

    @classmethod
    def _from_valid(cls, coeffs: dict, k: int) -> "Poly":
        """A Poly without __init__'s checks, for monomials of valid Polys.

        The coefficients must be ints or Fractions; zeros are dropped.
        """
        p = cls.__new__(cls)
        p.coeffs = {m: c for m, c in coeffs.items() if c}
        p.k = k
        return p

    @staticmethod
    def constant(c, k: int = 3) -> "Poly":
        return Poly({(0,) * k: c}, k)

    @staticmethod
    def variable(axis: int, k: int = 3) -> "Poly":
        if not 0 <= axis < k:
            raise ValueError(f"axis {axis} is not a variable of a polynomial in k = {k} variables")
        return Poly({tuple(int(i == axis) for i in range(k)): 1}, k)

    def degree(self) -> int:
        """Total degree; 0 for constants and the zero polynomial."""
        return max((sum(m) for m in self.coeffs), default=0)

    def _check_k(self, other: "Poly") -> None:
        if other.k != self.k:
            raise ValueError(f"polynomials in {self.k} and {other.k} variables")

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.k)
        self._check_k(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Poly._from_valid(out, self.k)

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._from_valid({m: -c for m, c in self.coeffs.items()}, self.k)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = other if type(other) is int else Fraction(other)
            return Poly._from_valid({m: c * other for m, c in self.coeffs.items()}, self.k)
        self._check_k(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly._from_valid(out, self.k)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power")
        out = Poly.constant(1, self.k)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and (self.k, self.coeffs) == (other.k, other.coeffs)

    def evaluate(self, *xs) -> Fraction:
        """Exact value at k rational (Fraction or int) arguments."""
        if len(xs) != self.k:
            raise TypeError(f"{len(xs)} arguments for {self.k} variables")
        xs = [Fraction(x) for x in xs]
        total = Fraction(0)
        for m, c in self.coeffs.items():
            for x, e in zip(xs, m):
                c = c * x**e
            total += c
        return total

    def __repr__(self) -> str:
        return f"Poly({dict(sorted(self.coeffs.items()))}, k={self.k})"


def stability_polynomial() -> Poly:
    """h - |x - (1/2, 1/2, 0)|^2 / 144, the stability form of the certified bound."""
    x1, x2, x3 = (Poly.variable(d) for d in range(3))
    half = Fraction(1, 2)
    return h_oracle() - Fraction(1, 144) * ((x1 - half) ** 2 + (x2 - half) ** 2 + x3**2)


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


def h_oracle() -> Poly:
    """The paper's h = 3/32 - g, from g_polynomial_oracle, in Fraction Polys."""
    return Poly.constant(Fraction(3, 32)) - g_polynomial_oracle()


def bernstein_oracle(p: Poly, vertices, degree: int | None = None) -> dict[tuple[int, int, int, int], Fraction]:
    """The Bernstein coefficients of p on a tetrahedron from Poly products of
    the barycentric forms, with tuple keys.

    D x1, D x2, D x3 and D (D the vertices' common denominator) are Polys
    linear in l over k = 4; with S the common denominator of p's
    coefficients, the sum of the terms is S D^n p, and each b[a] is its
    coefficient of l^a over S D^n times the multinomial n!/a!.  n is p's
    degree, or the given degree >= p's: a fresh conversion at that degree,
    with no elevation.
    """
    if p.k != 3:
        raise ValueError(f"bernstein_oracle needs a polynomial in 3 variables, not {p.k}")
    n = max((sum(m) for m in p.coeffs), default=0)
    if degree is not None:
        if degree < n:
            raise ValueError(f"degree {degree} is below the polynomial's {n}")
        n = degree
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


# D, the sorted domain, as Fractions: the vertices of the oracles' conversions
DOMAIN_VERTICES = (
    (Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
)


def point_in_domain(x1, x2, x3) -> bool:
    """Exact membership in D (rationals only)."""
    x1, x2, x3 = Fraction(x1), Fraction(x2), Fraction(x3)
    return x1 >= x2 >= x3 >= 0 and x1 + x2 + x3 <= 1


def multi_indices(m: int):
    """The multi-indices (a_0, a_1, a_2, a_3) with sum m: a_0, then a_1, then a_2 ascending."""
    return [
        (a0, a1, a2, m - a0 - a1 - a2)
        for a0 in range(m + 1)
        for a1 in range(m + 1 - a0)
        for a2 in range(m + 1 - a0 - a1)
    ]


def elevate_oracle(p: Poly, degree: int) -> dict[tuple[int, int, int, int], Fraction]:
    """The Bernstein coefficients of p on D at a degree >= p's, by Fraction degree elevation.

    Starts from bernstein_oracle(p, DOMAIN_VERTICES) at n = p's degree and raises
    the degree one step at a time: at degree m + 1,
    b'[a] = sum_i a_i b[a - e_i] / (m + 1), over the i with a_i > 0.  The
    keys are in multi_indices order.
    """
    coeffs = bernstein_oracle(p, DOMAIN_VERTICES)
    m = max((sum(mono) for mono in p.coeffs), default=0)
    if degree < m:
        raise ValueError(f"degree {degree} is below the polynomial's {m}")
    while m < degree:
        m += 1
        coeffs = {
            a: sum(
                (a[i] * coeffs[a[:i] + (a[i] - 1,) + a[i + 1 :]] for i in range(4) if a[i]),
                Fraction(0),
            )
            / m
            for a in multi_indices(m)
        }
    return coeffs


def power_form(p: dict) -> tuple[dict[int, int], int]:
    """The form D^n p of degree n, p's, in the barycentric coordinates l of D.

    With D = 6 the vertices' least common denominator, D x1, D x2 and D x3
    are linear in l, with DOMAIN's integers as their coefficients.  Write
    p_d for p's terms of degree d; since the l sum to 1,
    D^n p = sum_d D^(n - d) p_d(D x) (l_0 + l_1 + l_2 + l_3)^(n - d),
    which is summed by Horner in the degree: for d = 0..n the sum so far is
    raised one degree by ``_elevate`` and D^(n - d) p_d(D x) is added,
    with D^(n - d) folded into each term's integer coefficient.  The sum
    starts from the zero constant, so every elevation keeps it dense: every
    l^a with |a| = n has an entry, 0 included, keyed on the packed int
    a_1 + b a_2 + b^2 a_3 with b = BASE, a_0 being n - a_1 - a_2 - a_3.
    p is a term dict with nonzero int coefficients, of degree below BASE.
    Returns the form and its denominator D^n.
    """
    n = max(map(sum, p))
    unit = (0, 1, BASE, BASE * BASE)  # unit[i] is the key of l_i
    powers = []  # powers[x][e] is the e-th power of D x_(x+1) in l
    for x in range(3):
        form = {u: v[x] for u, v in zip(unit, DOMAIN) if v[x]}
        row = [{0: 1}]
        for _ in range(n):
            row.append(_mul_packed(row[-1], form, {}))
        powers.append(row)

    # layers[d][i] lists p's terms of degree d with x1^i, as (j, k, D^(n - d) c);
    # layer d is the sum over i of (D x1)^i times the sum of its (D x2)^j (D x3)^k c
    layers = [{} for _ in range(n + 1)]
    for (i, j, k), c in p.items():
        layers[i + j + k].setdefault(i, []).append((j, k, c * 6 ** (n - i - j - k)))
    total = {}
    for layer in layers:
        total = _elevate(total) or {0: 0}  # the zero constant, at degree 0
        for i, terms in layer.items():
            inner = {}
            for j, k, c in terms:
                _mul_packed(powers[1][j], {m: c * t for m, t in powers[2][k].items()}, inner)
            _mul_packed(powers[0][i], inner, total)
    return total, 6**n


def packed_coefficients(p: dict, degree: int) -> dict[tuple[int, int, int, int], Fraction]:
    """The coefficients of a term dict on D at a degree >= p's from
    power_form and the prover's _elevate and _bernstein_numerators.

    p's nonzero terms are scaled to ints by S, the lcm of their
    denominators, as power_form takes them, and S joins the denominator;
    the zero polynomial's coefficients are all 0, with no conversion.
    Asserts on the way that the form is dense at the degree and that the
    numerators come in multi_indices order.
    """
    scale = lcm(*(c.denominator for c in p.values()))
    terms = {m: c.numerator * (scale // c.denominator) for m, c in p.items() if c}
    if not terms:
        return {a: Fraction(0) for a in multi_indices(degree)}
    form, den = power_form(terms)
    for _ in range(degree - max(map(sum, terms))):
        form = _elevate(form)
    assert len(form) == len(multi_indices(degree))  # dense at every degree
    nums = _bernstein_numerators(form, degree)
    assert list(nums) == multi_indices(degree)
    return {a: Fraction(c, scale * den * factorial(degree)) for a, c in nums.items()}


def delete_vertex_oriented(g: OrientedGraph, v: int) -> OrientedGraph:
    def shift(x):
        return x if x < v else x - 1

    return OrientedGraph(
        g.n - 1, [(shift(a), shift(b)) for (a, b) in g.arcs if v not in (a, b)]
    )


def _closed_form_1d(x: np.ndarray) -> float:
    s2 = float(np.sum(x * x))
    s3 = float(np.sum(x**3))
    return (1.0 - s3) / 6.0 - (1.0 - s2) * (1.0 - s2) / 8.0


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
    BLAS dot products, whose last bits depend on the BLAS kernel.  From the
    second iteration on it first tries the long step t = min(ss/sy, 384),
    or 384 when sy <= 0, where s is the last step, y the gradient change
    and sy = -s.y, and keeps that trial if it passes Armijo, whatever t
    is.  Otherwise it backtracks from step 6.  Returns the final point, its
    objective value, the last residual, the converged flag and the number
    of long trials taken.
    """
    step0, t_max = 6.0, 384.0
    fx = _closed_form_1d(x)
    residual = np.inf
    s = g_prev = None
    long_steps = 0
    for _ in range(max_iter):
        grad = _gradient_1d(x)
        moved = _project_1d(x + step0 * grad)
        residual = float(np.sqrt(np.sum((moved - x) ** 2)) / step0)
        if residual < tol:
            return x, fx, residual, True, long_steps
        new = None
        if s is not None:
            ss = float(np.sum(s * s))
            sy = -float(np.sum(s * (grad - g_prev)))
            t = min(ss / sy, t_max) if sy > 0 else t_max
            trial = _project_1d(x + t * grad)
            fl = _closed_form_1d(trial)
            if fl > fx + 1e-4 * float(np.sum(grad * (trial - x))):
                new, fnew = trial, fl
                long_steps += 1
        if new is None:
            step = step0
            # Armijo backtracking on the projected step
            for _ in range(60):
                trial = _project_1d(x + step * grad) if step != step0 else moved
                ft = _closed_form_1d(trial)
                if ft > fx + 1e-4 * float(np.sum(grad * (trial - x))):
                    new, fnew = trial, ft
                    break
                step *= 0.5
        if new is None:
            return x, fx, residual, residual < tol, long_steps
        s, g_prev = new - x, grad
        x, fx = new, fnew
    return x, fx, residual, False, long_steps

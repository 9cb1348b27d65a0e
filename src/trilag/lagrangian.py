"""The exact chain on integers: L_CF <= L_BF <= L_BF of the merged complete
graph = closed form <= trivariate g at the sorted final weights <= 3/32.

For an orientation G with triple system CF and weights x on the simplex:

    L_CF = sum_{{x,y,z} in CF} xyz + (1/2) sum_{(x,y) arc} x^2 y

For an undirected graph G with triple system BF:

    L_BF = sum_{{x,y,z} in BF} xyz
         + (1/2) sum_{{x,y} edge} (x^2 y + x y^2)
         - (1/2) (sum_{{x,y} edge} x y)^2

The arc term of L_CF takes x^2 y only (ordered arc x->y); the edge term
of L_BF takes both x^2 y and x y^2 per unordered edge.  Every link runs
on integers: with d the least common denominator of the weights and
p = d x their numerators, a WeightVector is built from (d, p) and stores
nothing else, and d^3, 2 d^3 and 2 d^4 times the triple, pair and
quadratic terms are integers, and so are a = 2 d^3 L_CF and
N = 2 d^4 L_BF.  No link makes a Fraction: the reports render each
value num / den with _ratio, which gives str(Fraction(num, den)) from one
gcd.  Floats appear only in the optimizer module.

Neither triple sum visits the C(n,3) triples; both are sums over
neighbourhoods.  With s_v and r_v the sums of p and of p^2 over the
neighbours of v, e2(N(v)) = (s_v^2 - r_v)/2 sums p_y p_z over the pairs of
neighbours of v, that is over the triples in which v is adjacent to both
others.  A BF triple with two edges has one such centre and a triangle has
three, so the BF triple sum is sum_v p_v e2(N(v)) - 2T, with T the triangle
sum.  BF minus CF is the set of triples with a dominator, a vertex with
arcs to both others, and each such triple has exactly one (pinned on the
27 triple orientations in the tests), so the CF triple sum is the BF one
less sum_u p_u e2(N+(u)), with N+(u) the out-neighbours of u.  The pair
terms are sums over neighbourhoods too: sum_v p_v^2 s_v for BF and
sum_u p_u^2 s+_u for CF.  One evaluation costs O(n + m) integer operations
for n vertices and m edges, plus one set intersection per edge for T.
These sums, and the branch terms of a merge below, run as plain loops
over the neighbour sets: on the small neighbourhoods of most inputs a
generator frame per sum costs more than the sum.  The out-sums s+_u and
r+_u of CF come from one loop over the arcs, with no out-neighbour sets.

Merges.  For a non-edge (a,b) with weights a,b, deleting b and giving its
weight to a yields G_a (and symmetrically G_b).  With S_a, S_b the
neighbour weight sums and S_ab the common-neighbour weight sum, the exact
identity

    a*L(G_a) + b*L(G_b) - (a+b)*L(G)
        = a*b*(a+b) * ((1/2)(S_a + S_b - (S_a - S_b)^2) - S_ab)

holds, and the right side is nonnegative because S_ab <= min(S_a,S_b)
and |S_a - S_b| <= 1 on the simplex.  Hence at least one branch does not
decrease the Lagrangian, and repeating until no non-edge remains reaches
a complete graph in at most n-1 merges.  Both branches are evaluated
without rebuilding BF.  Split L_BF by whether a term touches a or b; with
V' the other vertices,

    L = C + x_a U_a + x_b U_b + x_a x_b S_ab + (1/2)(x_a^2 S_a + x_b^2 S_b)
          - (1/2)(E_0 + x_a S_a + x_b S_b)^2,

where C collects the terms inside V', E_0 is the edge sum x_y x_z inside
V', and U_v = T_v + (1/2) R_v: T_v sums x_y x_z over the pairs y, z of V'
for which {v, y, z} spans at least two edges, and R_v sums x_y^2 over the
neighbours y of v.  G_a keeps C, E_0, S_a and U_a, and a weighs X = x_a + x_b:

    L(G_a) = C + X U_a + (1/2) X^2 S_a - (1/2)(E_0 + X S_a)^2,

and L(G_b) likewise.  C is recovered from the current value.  A merge
adds two numerators, so d is fixed along the chain; each merge costs
O(n^2) integer operations and compares N(G_a) with N(G_b).  The final
graph is not built: it is complete on the vertices that no row drops.
The object-level merge, which deletes a vertex and rebuilds the graph,
its weights and both branch Lagrangians, is the oracle in tests/helpers.py.

Tail.  On the complete graph with numerators q, the closed form and g are

    24 d^4 f(q / d) = 4d(d^3 - sum q^3) - 3(d^2 - sum q^2)^2,
    24 d^4 g(q1/d, q2/d, q3/d) = 4d(d^3 - sum q_i^3) - 3 Q^2,
        Q = d^2 - q1^2 - q2^2 - q3(d - q1 - q2),

and the majorization reads sum q^2 <= q1^2 + q2^2 + q3(d - q1 - q2) for q
sorted descending.  The tail cores do not validate their input.
_check_numerators, the one check of simplex numerators, validates every
WeightVector, and pipeline_report calls it on the final numerators, for
which it builds no vector; the optimizer in trilag.simplex takes (d, p)
from a WeightVector.

lagrangian_report, reduce_report and pipeline_report build the payloads
of trilag lagrangian, reduce and pipeline, and are the module's only
entrances: each takes its sums from _graph_sums, and the last two run the
merge chain as _reduce on them.  This module, like trilag.graphs, loads
no numpy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

from .graphs import OrientedGraph


class WeightVector:
    """Nonnegative rational vertex weights summing to exactly one.

    ``WeightVector(d, p)`` is the vector p / d, for integers d >= 1 and p.
    Both are divided by their gcd and pass _check_numerators, and are kept
    read-only as ``denominator``, the least common denominator of the
    entries, and ``numerators`` (a tuple).  ``entries`` makes the Fractions
    p / d on each call.  A vector has no equality or repr of its own:
    compare (denominator, numerators).
    """

    __slots__ = ("_denominator", "_numerators")

    def __init__(self, d: int, numerators) -> None:
        try:
            d, p = index(d), tuple(map(index, numerators))
        except TypeError:
            raise ValueError("denominator and numerators must be integers") from None
        if d < 1:
            raise ValueError(f"denominator must be positive, got {d}")
        g = gcd(d, *p)
        if g != 1:
            d, p = d // g, tuple(v // g for v in p)
        _check_numerators(d, p)
        self._denominator = d
        self._numerators = p

    @property
    def denominator(self) -> int:
        """d, the least common denominator of the entries."""
        return self._denominator

    @property
    def numerators(self) -> tuple[int, ...]:
        """p = d * w, the entries as integers over ``denominator``."""
        return self._numerators

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The weights p / d as Fractions, made on each call."""
        d = self._denominator
        return tuple(Fraction(v, d) for v in self._numerators)


def _check_numerators(d: int, p) -> None:
    """Raise unless p / d is on the simplex: p nonempty, every p >= 0 and sum(p) == d."""
    if not p:
        raise ValueError("weight vector must be nonempty")
    if any(v < 0 for v in p):
        raise ValueError("negative weight")
    if sum(p) != d:
        raise ValueError(f"weights sum to {_ratio(sum(p), d)}, expected 1")


def _adjacency(n: int, pairs) -> list[set[int]]:
    """Neighbour sets of the undirected graph on 0..n-1 with the given vertex pairs."""
    adj = [set() for _ in range(n)]
    for (u, v) in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _bf_sums(adj, p) -> tuple[int, int, int]:
    """(triples, pairs, edges): d^3, 2 d^3 and d^2 times the triple term, the
    pair term and the edge sum sum_{uv} x_u x_v of L_BF, from neighbour sets.

    ``centres`` is 2 sum_v p_v e2(N(v)); ``triangles`` is T, each triangle
    v < y < z found once from the common neighbours ``near & adj[y]`` of
    the edge v < y.  One loop over the neighbours of v gives s_v, r_v and
    the triangles at v.
    """
    centres = triangles = pairs = edges = 0
    for v, near in enumerate(adj):
        if not near:
            continue
        x = p[v]
        s = r = 0
        for y in near:
            py = p[y]
            s += py
            r += py * py
            if y > v:
                above = 0
                for z in near & adj[y]:
                    if z > y:
                        above += p[z]
                triangles += x * py * above
        centres += x * (s * s - r)
        pairs += x * x * s
        edges += x * s
    return (centres - 4 * triangles) // 2, pairs, edges // 2


def _graph_sums(g, w: WeightVector):
    """(neighbour sets, _bf_sums at w) of an undirected graph, or of an
    orientation's underlying graph; raises unless w has one weight per vertex."""
    p = w.numerators
    if len(p) != g.n:
        raise ValueError(f"weight length {len(p)} != vertex count {g.n}")
    adj = _adjacency(g.n, g.arcs if isinstance(g, OrientedGraph) else g.edges)
    return adj, _bf_sums(adj, p)


def _cf_sums(g: OrientedGraph, p, bf_triples: int) -> tuple[int, int]:
    """(triples, arcs): d^3 and 2 d^3 times the triple and the arc term of L_CF.

    One loop over the arcs u->v adds up s+_u and r+_u, the sums of p_v and
    p_v^2 over the out-neighbours of u.  The CF triple sum is the BF one,
    ``bf_triples``, less the triples with a dominator: ``dominated`` is
    2 sum_u p_u e2(N+(u)).
    """
    s, r = [0] * g.n, [0] * g.n
    for u, v in g.arcs:
        y = p[v]
        s[u] += y
        r[u] += y * y
    dominated = arcs = 0
    for x, s_u, r_u in zip(p, s, r):
        dominated += x * (s_u * s_u - r_u)
        arcs += x * x * s_u
    return bf_triples - dominated // 2, arcs


def _bf_numerator(d: int, triples: int, pairs: int, edges: int) -> int:
    """N = 2 d^4 L_BF from the integer sums of ``_bf_sums``."""
    return 2 * d * triples + d * pairs - edges * edges


def _branch_terms(adj, p, v: int, a: int, b: int) -> tuple[int, int]:
    """(s_v, u_v) of v in {a, b}: s_v = d S_v, u_v = 2 d^2 U_v = 2 t_v + r_v.

    A pair y < z of V' counts in t_v when both are neighbours of v, or when
    one is and yz is an edge, so u_v = s_v^2 + 2 sum_{y ~ v} p_y q_y, where
    q_y sums p_z over the neighbours z of y in V' that are not neighbours of v.
    """
    near = adj[v]
    skip = near | {a, b}
    s_v = cross = 0
    for y in near:
        q = 0
        for z in adj[y]:
            if z not in skip:
                q += p[z]
        s_v += p[y]
        cross += p[y] * q
    return s_v, s_v * s_v + 2 * cross


def _first_non_edge(adj, alive):
    """The lexicographically smallest pair a < b of ``alive`` with no edge, or None."""
    for i, a in enumerate(alive):
        near = adj[a]
        for b in alive[i + 1:]:
            if b not in near:
                return a, b
    return None


def _reduce(adj, sums: tuple[int, int, int], w: WeightVector):
    """The merge chain on integers, from the neighbour sets ``adj`` of the
    input graph and its ``_bf_sums`` at w; ``adj`` is updated in place by
    each merge.

    Each merge takes the lexicographically smallest non-edge, evaluates both
    branches exactly and keeps the larger (ties keep the smaller vertex
    index), so L_BF never decreases along the chain, which ends when the
    graph is complete.

    Returns (d, q, rows, N_start, N_final): d the denominator of w, q the
    numerators over d of the final weights in input-label order, one row
    (pair, kept, branch, d S_a, d S_b, d S_ab, N_before, N_after) per merge,
    in input labels, and N of the input and of the final graph.
    """
    d, p = w.denominator, list(w.numerators)  # p is updated in place by each merge
    level = start = _bf_numerator(d, *sums)  # N = 2 d^4 L_BF
    edges = sums[2]  # d^2 E
    alive = list(range(len(adj)))  # vertices keep their input labels
    rows = []
    while True:
        pair = _first_non_edge(adj, alive)
        if pair is None:
            break
        a, b = pair
        (s_a, u_a), (s_b, u_b) = _branch_terms(adj, p, a, a, b), _branch_terms(adj, p, b, a, b)
        s_ab = 0
        for y in adj[a] & adj[b]:
            s_ab += p[y]
        x_a, x_b, x = p[a], p[b], p[a] + p[b]
        e0 = edges - x_a * s_a - x_b * s_b
        # 2 d^4 C: the current value less every term that touches a or b
        rest = level - d * (x_a * u_a + x_b * u_b + 2 * x_a * x_b * s_ab
                            + x_a * x_a * s_a + x_b * x_b * s_b) + edges * edges
        n_a = rest + d * x * (u_a + x * s_a) - (e0 + x * s_a) ** 2
        n_b = rest + d * x * (u_b + x * s_b) - (e0 + x * s_b) ** 2
        if n_a >= n_b:
            after, kept, dropped, branch, s_kept = n_a, a, b, "a", s_a
        else:
            after, kept, dropped, branch, s_kept = n_b, b, a, "b", s_b
        rows.append((pair, kept, branch, s_a, s_b, s_ab, level, after))
        level = after
        p[kept] = x
        edges = e0 + x * s_kept
        alive.remove(dropped)
        for y in adj[dropped]:
            adj[y].discard(dropped)
    return d, [p[v] for v in alive], rows, start, level


def _closed_form_numerator(d: int, p) -> int:
    """24 d^4 f(p / d) = 4d(d^3 - sum p^3) - 3(d^2 - sum p^2)^2, unchecked."""
    d2 = d * d
    s2 = sum(v * v for v in p)
    s3 = sum(v * v * v for v in p)
    return 4 * d * (d2 * d - s3) - 3 * (d2 - s2) ** 2


def _g_numerator(d: int, p1: int, p2: int, p3: int) -> int:
    """24 d^4 g(p1/d, p2/d, p3/d), unchecked."""
    d2 = d * d
    q = d2 - p1 * p1 - p2 * p2 - p3 * (d - p1 - p2)
    return 4 * d * (d2 * d - p1**3 - p2**3 - p3**3) - 3 * q * q


def _majorized(d: int, p) -> bool:
    """The majorization of the numerators p = d x of sorted-descending x with
    at least 3 coordinates, unchecked."""
    p1, p2, p3 = p[:3]
    return sum(v * v for v in p) <= p1 * p1 + p2 * p2 + p3 * (d - p1 - p2)


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, from one gcd."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _trace_rows(d: int, rows) -> list[dict]:
    """The rows of _reduce over the denominator d, values as p/q strings."""
    scale = 2 * d**4
    return [{"pair": list(pair), "kept": kept, "branch": branch,
             "S_a": _ratio(s_a, d), "S_b": _ratio(s_b, d), "S_ab": _ratio(s_ab, d),
             "lagrangian_before": _ratio(before, scale), "lagrangian_after": _ratio(after, scale)}
            for pair, kept, branch, s_a, s_b, s_ab, before, after in rows]


def _lag_json(d: int, triples: int, pairs: int, edges: int = 0) -> dict:
    """L_BF and its terms from its _bf_sums over the denominator d, as p/q
    strings; L_CF is the same form with no edge sum, from its _cf_sums."""
    return {
        "value": _ratio(_bf_numerator(d, triples, pairs, edges), 2 * d**4),
        "triple_term": _ratio(triples, d**3),
        "pair_term": _ratio(pairs, 2 * d**3),
        "quadratic_term": _ratio(edges * edges, 2 * d**4),
    }


def lagrangian_report(g, w: WeightVector) -> dict:
    """L_CF of an orientation and L_BF of its underlying graph, or L_BF of an
    undirected graph, each with its terms."""
    d = w.denominator
    sums = _graph_sums(g, w)[1]
    if isinstance(g, OrientedGraph):
        cf = _cf_sums(g, w.numerators, sums[0])
        return {"lagrangian_cf": _lag_json(d, *cf), "lagrangian_bf_underlying": _lag_json(d, *sums)}
    return {"lagrangian_bf": _lag_json(d, *sums)}


def reduce_report(g, w: WeightVector) -> dict:
    """The merge chain of an undirected graph, or of an orientation's
    underlying graph: its rows, the final weights and L_BF."""
    d, final, rows, _, end = _reduce(*_graph_sums(g, w), w)
    return {
        "trace": _trace_rows(d, rows),
        "final_order": len(final),
        "final_weights": [_ratio(v, d) for v in final],
        "final_lagrangian": _ratio(end, 2 * d**4),
        "monotone": all(after >= before for *_, before, after in rows),
    }


def pipeline_report(g: OrientedGraph, w: WeightVector) -> dict:
    """Run the whole inequality chain on one instance, re-checking each link exactly.

    Each value is computed once.  One adjacency and one BF triple sum serve
    both L_CF, which subtracts the dominated triples from that sum, and the
    merge chain, which starts from L_BF of the same sums and returns the
    final L_BF on its way; h_at_point is 3/32 - g at that point.

    The links are compared on integers.  With q the final numerators,
    sorted descending and padded with zeros to three, and c and c_g the
    closed form and g times 24 d^4, the links read d a <= N_start,
    N_start <= N_final, 12 N_final == c, the majorization of q with
    c <= c_g, and 32 c_g <= 72 d^4.
    """
    if not isinstance(g, OrientedGraph):  # L_CF is defined on orientations: refuse before any sum
        raise ValueError(f"L_CF needs an OrientedGraph, not {type(g).__name__}")
    d = w.denominator
    adj, sums = _graph_sums(g, w)
    cf_triples, cf_arcs = _cf_sums(g, w.numerators, sums[0])
    lcf = 2 * cf_triples + cf_arcs  # a = 2 d^3 L_CF
    _, final, rows, start, end = _reduce(adj, sums, w)
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

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
p = d x their numerators, which a WeightVector computes once, d^3, 2 d^3
and 2 d^4 times the triple, pair and quadratic terms are integers, and
so are a = 2 d^3 L_CF and N = 2 d^4 L_BF.  lagrangian_cf and lagrangian_bf
make one Fraction, the value; the reports render each value num / den
with _ratio, which gives str(Fraction(num, den)) from one gcd.  Floats
appear only in the optimizer module.

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
sorted descending.  The tail cores do not validate their input:
pipeline_report checks the final numerators with _check_numerators, and
the optimizer in trilag.simplex takes (d, p) from a WeightVector.

lagrangian_report, reduce_report and pipeline_report build the payloads
of trilag lagrangian, reduce and pipeline.  This module, like trilag.graphs,
loads no numpy.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .graphs import OrientedGraph, UndirectedGraph, underlying


class WeightVector:
    """Nonnegative rational vertex weights summing to exactly one.

    The constructor computes d, the least common denominator of the
    entries, and the integer numerators p = d * w once; it validates on
    them (every p >= 0, sum(p) == d).  Both stay available, read-only, as
    ``denominator`` and ``numerators`` (a tuple).
    """

    __slots__ = ("entries", "_denominator", "_numerators")

    def __init__(self, entries) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValueError("weight vector must be nonempty")
        if not all(isinstance(w, (Fraction, int)) for w in entries):
            raise ValueError("weights must be rationals (Fraction or int)")
        entries = tuple(w if isinstance(w, Fraction) else Fraction(w) for w in entries)
        d = lcm(*(w.denominator for w in entries))
        p = tuple(w.numerator * (d // w.denominator) for w in entries)
        if any(v < 0 for v in p):
            raise ValueError("negative weight")
        if sum(p) != d:
            raise ValueError(f"weights sum to {Fraction(sum(p), d)}, expected 1")
        self.entries = entries
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

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightVector) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"WeightVector({list(self.entries)})"


def uniform_weights(n: int) -> WeightVector:
    """All entries 1/n, exact."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return WeightVector([Fraction(1, n)] * n)


def _check_order(w: WeightVector, n: int) -> None:
    if len(w) != n:
        raise ValueError(f"weight length {len(w)} != vertex count {n}")


def _adjacency(n: int, pairs) -> list[set[int]]:
    """Neighbour sets of the undirected graph on 0..n-1 with the given vertex pairs."""
    adj = [set() for _ in range(n)]
    for (u, v) in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _arc_adjacency(g: OrientedGraph) -> tuple[list[set[int]], list[set[int]]]:
    """(out-neighbour sets, neighbour sets of the underlying graph) of an orientation."""
    out = [set() for _ in range(g.n)]
    for (u, v) in g.arcs:
        out[u].add(v)
    return out, _adjacency(g.n, g.arcs)


def _bf_sums(adj, p) -> tuple[int, int, int]:
    """(triples, pairs, edges): d^3, 2 d^3 and d^2 times the triple term, the
    pair term and the edge sum sum_{uv} x_u x_v of L_BF, from neighbour sets.

    ``centres`` is 2 sum_v p_v e2(N(v)); ``triangles`` is T, each triangle
    v < y < z found once from the neighbours above v and above y.
    """
    up = [{y for y in near if y > v} for v, near in enumerate(adj)]
    centres = triangles = pairs = edges = 0
    for v, near in enumerate(adj):
        if not near:
            continue
        x = p[v]
        s = sum(p[y] for y in near)
        centres += x * (s * s - sum(p[y] * p[y] for y in near))
        above = up[v]
        triangles += x * sum(p[y] * sum(p[z] for z in above & up[y]) for y in above)
        pairs += x * x * s
        edges += x * s
    return (centres - 4 * triangles) // 2, pairs, edges // 2


def _cf_sums(out, p, bf_triples: int) -> tuple[int, int]:
    """(triples, arcs): d^3 and 2 d^3 times the triple and the arc term of L_CF.

    The CF triple sum is the BF one, ``bf_triples``, less the triples with a
    dominator: ``dominated`` is 2 sum_u p_u e2(N+(u)).
    """
    dominated = arcs = 0
    for u, ahead in enumerate(out):
        if not ahead:
            continue
        x = p[u]
        s = sum(p[v] for v in ahead)
        dominated += x * (s * s - sum(p[v] * p[v] for v in ahead))
        arcs += x * x * s
    return bf_triples - dominated // 2, arcs


def _cf_numerator(triples: int, arcs: int) -> int:
    """a = 2 d^3 L_CF from the integer sums of ``_cf_sums``."""
    return 2 * triples + arcs


def _bf_numerator(d: int, triples: int, pairs: int, edges: int) -> int:
    """N = 2 d^4 L_BF from the integer sums of ``_bf_sums``."""
    return 2 * d * triples + d * pairs - edges * edges


def _orientation_sums(g: OrientedGraph, w: WeightVector):
    """(the _cf_sums of g, the _bf_sums of its underlying graph, that graph's
    neighbour sets) at w, from one adjacency and one BF sum."""
    _check_order(w, g.n)
    out, adj = _arc_adjacency(g)
    p = w.numerators
    sums = _bf_sums(adj, p)
    return _cf_sums(out, p, sums[0]), sums, adj


def lagrangian_cf(g: OrientedGraph, w: WeightVector) -> Fraction:
    """L_CF of an orientation: CF triple products plus half the arc x^2 y sum."""
    return Fraction(_cf_numerator(*_orientation_sums(g, w)[0]), 2 * w.denominator**3)


def lagrangian_bf(g: UndirectedGraph, w: WeightVector) -> Fraction:
    """L_BF of an undirected graph, edges summed once each."""
    _check_order(w, g.n)
    sums = _bf_sums(_adjacency(g.n, g.edges), w.numerators)
    return Fraction(_bf_numerator(w.denominator, *sums), 2 * w.denominator**4)


def _branch_terms(adj, p, v: int, a: int, b: int) -> tuple[int, int]:
    """(s_v, u_v) of v in {a, b}: s_v = d S_v, u_v = 2 d^2 U_v = 2 t_v + r_v.

    A pair y < z of V' counts in t_v when both are neighbours of v, or when
    one is and yz is an edge, so u_v = s_v^2 + 2 sum_{y ~ v} p_y q_y, where
    q_y sums p_z over the neighbours z of y in V' that are not neighbours of v.
    """
    near = adj[v]
    s_v = sum(p[y] for y in near)
    cross = sum(p[y] * sum(p[z] for z in adj[y] - near - {a, b}) for y in near)
    return s_v, s_v * s_v + 2 * cross


def merge_chain(g: UndirectedGraph, w: WeightVector):
    """Merge lexicographically-smallest non-edges of g until the graph is complete.

    Both branches are evaluated exactly and the larger kept (ties keep the
    smaller vertex index), so L_BF never decreases along the chain.
    Returns the integers (d, q, rows, N_start, N_final) of _reduce.
    """
    _check_order(w, g.n)
    adj = _adjacency(g.n, g.edges)
    return _reduce(adj, w, _bf_sums(adj, w.numerators))


def _reduce(adj, w: WeightVector, sums: tuple[int, int, int]):
    """The merge chain on integers, from the neighbour sets ``adj`` of the
    input graph and its ``_bf_sums`` at w; ``adj`` is updated in place by
    each merge.

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
        pair = next(((a, b) for a, b in combinations(alive, 2) if b not in adj[a]), None)
        if pair is None:
            break
        a, b = pair
        (s_a, u_a), (s_b, u_b) = _branch_terms(adj, p, a, a, b), _branch_terms(adj, p, b, a, b)
        s_ab = sum(p[y] for y in adj[a] & adj[b])
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
    if isinstance(g, OrientedGraph):
        cf, bf, _ = _orientation_sums(g, w)
        return {"lagrangian_cf": _lag_json(d, *cf), "lagrangian_bf_underlying": _lag_json(d, *bf)}
    _check_order(w, g.n)
    return {"lagrangian_bf": _lag_json(d, *_bf_sums(_adjacency(g.n, g.edges), w.numerators))}


def reduce_report(g, w: WeightVector) -> dict:
    """The merge chain of an undirected graph, or of an orientation's
    underlying graph: its rows, the final weights and L_BF."""
    if isinstance(g, OrientedGraph):
        g = underlying(g)
    d, final, rows, _, end = merge_chain(g, w)
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
    d = w.denominator
    cf, sums, adj = _orientation_sums(g, w)
    lcf = _cf_numerator(*cf)
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

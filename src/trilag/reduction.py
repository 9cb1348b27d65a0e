"""Symmetrization: merge non-adjacent vertex pairs without decreasing L_BF.

For a non-edge (a,b) with weights a,b, deleting b and giving its weight
to a yields G_a (and symmetrically G_b).  With S_a, S_b the neighbor
weight sums and S_ab the common-neighbor weight sum, the exact identity

    a*L(G_a) + b*L(G_b) - (a+b)*L(G)
        = a*b*(a+b) * ((1/2)(S_a + S_b - (S_a - S_b)^2) - S_ab)

holds, and the right side is nonnegative because S_ab <= min(S_a,S_b)
and |S_a - S_b| <= 1 on the simplex.  Hence at least one branch does not
decrease the Lagrangian, and repeating until no non-edge remains reaches
a complete graph in at most n-1 merges.

merge_chain evaluates both branches without rebuilding BF.  Split
L_BF by whether a term touches a or b; with V' the other vertices,

    L = C + x_a U_a + x_b U_b + x_a x_b S_ab + (1/2)(x_a^2 S_a + x_b^2 S_b)
          - (1/2)(E_0 + x_a S_a + x_b S_b)^2,

where C collects the terms inside V', E_0 is the edge sum x_y x_z inside
V', and U_v = T_v + (1/2) R_v: T_v sums x_y x_z over the pairs y, z of V'
for which {v, y, z} spans at least two edges, and R_v sums x_y^2 over the
neighbours y of v.  G_a keeps C, E_0, S_a and U_a, and a weighs X = x_a + x_b:

    L(G_a) = C + X U_a + (1/2) X^2 S_a - (1/2)(E_0 + X S_a)^2,

and L(G_b) likewise.  C is recovered from the current value.  All of this
runs on integers: with d the least common denominator of the input
weights and p = d x, a merge adds two numerators, so d is fixed along the
chain, and N = 2 d^4 L_BF is an integer.  The starting N comes from the
neighbourhood sums of trilag.lagrangian on the adjacency sets that the
merges update; each merge costs O(n^2) integer operations for its sums
and compares the two branch values N(G_a) and N(G_b) directly.

merge_chain, the one entrance, takes an undirected graph g and weights w
with len(w) == g.n and hands their adjacency sets and BF sums to _reduce,
the chain itself.  It returns integers only, (d, q, rows, N_start,
N_final): d, the final numerators, one row per merge (the pair, the kept
vertex, the branch, d S_a, d S_b, d S_ab, and N before and after) and N
of the input and of the final graph.  That graph is not built: it is
complete on the vertices that no row drops.  The pipeline calls _reduce
directly, with the adjacency and the BF sums it has already computed for
L_CF, and checks its links on the integers.  The pipeline and trilag
reduce render the rows with _trace_rows and every value num / den with
_ratio, which gives str(Fraction(num, den)) from one gcd.  The
object-level merge, which deletes a vertex and rebuilds the graph, its
weights and both branch Lagrangians, is not part of the library: it is
the oracle in tests/helpers.py that merge_chain and the identity above
are checked against.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .graphs import UndirectedGraph
from .lagrangian import WeightVector, _adjacency, _bf_numerator, _bf_sums, _check_order


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
    in input labels, and N = 2 d^4 L_BF of the input and of the final
    graph.
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

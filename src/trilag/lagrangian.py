"""Exact evaluation of the two triple-system Lagrangians.

For an orientation G with triple system CF and weights x on the simplex:

    L_CF = sum_{{x,y,z} in CF} xyz + (1/2) sum_{(x,y) arc} x^2 y

For an undirected graph G with triple system BF:

    L_BF = sum_{{x,y,z} in BF} xyz
         + (1/2) sum_{{x,y} edge} (x^2 y + x y^2)
         - (1/2) (sum_{{x,y} edge} x y)^2

The arc term of L_CF takes x^2 y only (ordered arc x->y); the edge term
of L_BF takes both x^2 y and x y^2 per unordered edge.  Everything here
is exact: with d the least common denominator of the weights and p = d x
their integer numerators, each sum runs over the integers p, so d^3,
2 d^3 and 2 d^4 times the triple, pair and quadratic terms are integers.
lagrangian_cf and lagrangian_bf make one Fraction, the value, from them;
trilag lagrangian renders every term from its integer with
reduction._ratio, as the pipeline does.  A WeightVector computes d and p
once, when it is built, and keeps them as ``denominator`` and
``numerators``.  Floats appear only in the optimizer module.

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
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .graphs import OrientedGraph, UndirectedGraph


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
    """(the _cf_sums of g, the _bf_sums of its underlying graph) at w, from
    one adjacency and one BF sum."""
    _check_order(w, g.n)
    out, adj = _arc_adjacency(g)
    p = w.numerators
    sums = _bf_sums(adj, p)
    return _cf_sums(out, p, sums[0]), sums


def lagrangian_cf(g: OrientedGraph, w: WeightVector) -> Fraction:
    """L_CF of an orientation: CF triple products plus half the arc x^2 y sum."""
    return Fraction(_cf_numerator(*_orientation_sums(g, w)[0]), 2 * w.denominator**3)


def lagrangian_bf(g: UndirectedGraph, w: WeightVector) -> Fraction:
    """L_BF of an undirected graph, edges summed once each."""
    _check_order(w, g.n)
    sums = _bf_sums(_adjacency(g.n, g.edges), w.numerators)
    return Fraction(_bf_numerator(w.denominator, *sums), 2 * w.denominator**4)

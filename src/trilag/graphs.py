"""Oriented graphs, undirected graphs, and the triple constructions.

An orientation is a loopless digraph with no antiparallel arc pair, so its
arcs biject with the edges of the underlying undirected graph.  From an
orientation we build two complementary 3-uniform systems:

  F  -- triples whose induced subdigraph has at most one arc, or in which
        some vertex has arcs to both others (a "dominator");
  CF -- triples with at least two induced arcs and no dominator.

From an undirected graph we build

  BF -- triples whose induced subgraph spans at least two edges.

CF is the complement of F within all C(n,3) triples, and CF is contained
in BF of the underlying graph; both facts are exercised exhaustively in
the test suite.

A 3-graph is a plain set of triples: build_f, build_cf and build_bf each
return a frozenset of vertex triples, every triple sorted ascending.
edge_density takes the vertex count beside it.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import comb


def _endpoints(pair) -> tuple[int, int]:
    """The two vertex labels of an arc or edge as ints; a non-integer label,
    such as 1.0 or 3/2, is a ValueError that names the pair."""
    u, v = pair
    try:
        return operator.index(u), operator.index(v)
    except TypeError:
        raise ValueError(f"non-integer vertex label in {(u, v)}") from None


class OrientedGraph:
    """Loopless digraph with no antiparallel arcs, on vertices 0..n-1."""

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arcset = frozenset(_endpoints(a) for a in arcs)
        for (u, v) in arcset:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if (v, u) in arcset:
                raise ValueError(f"antiparallel pair {u}<->{v}: not an orientation")
        self.n = n
        self.arcs = arcset

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedGraph)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, arcs={self.sorted_arcs()})"


class UndirectedGraph:
    """Simple graph; edges stored once as (min,max) pairs."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = set()
        for e in edges:
            u, v = _endpoints(e)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {{{u},{v}}} out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            canon.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(canon)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UndirectedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, edges={self.sorted_edges()})"


def complete_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(n, itertools.combinations(range(n), 2))


def _induced_arcs(g: OrientedGraph, x: int, y: int, z: int):
    """Arcs of g inside {x,y,z}."""
    out = []
    for (u, v) in itertools.permutations((x, y, z), 2):
        if (u, v) in g.arcs:
            out.append((u, v))
    return out


def _dominator(g: OrientedGraph, x: int, y: int, z: int):
    """Vertex of the triple with arcs to both others, or None.

    An orientation admits at most one dominator per triple: two would
    force an antiparallel pair between them.
    """
    for (a, b, c) in ((x, y, z), (y, x, z), (z, x, y)):
        if (a, b) in g.arcs and (a, c) in g.arcs:
            return a
    return None


def build_f(g: OrientedGraph) -> frozenset[tuple[int, int, int]]:
    """Triples with at most one induced arc, or with a dominator."""
    triples = []
    for (x, y, z) in itertools.combinations(range(g.n), 3):
        if len(_induced_arcs(g, x, y, z)) <= 1 or _dominator(g, x, y, z) is not None:
            triples.append((x, y, z))
    return frozenset(triples)


def build_cf(g: OrientedGraph) -> frozenset[tuple[int, int, int]]:
    """Triples with at least two induced arcs and no dominator.

    Complement of build_f within all C(n,3) triples.
    """
    triples = []
    for (x, y, z) in itertools.combinations(range(g.n), 3):
        if len(_induced_arcs(g, x, y, z)) >= 2 and _dominator(g, x, y, z) is None:
            triples.append((x, y, z))
    return frozenset(triples)


def build_bf(g: UndirectedGraph) -> frozenset[tuple[int, int, int]]:
    """Triples spanning at least two edges of g."""
    triples = []
    for (x, y, z) in itertools.combinations(range(g.n), 3):
        k = g.has_edge(x, y) + g.has_edge(x, z) + g.has_edge(y, z)
        if k >= 2:
            triples.append((x, y, z))
    return frozenset(triples)


def underlying(g: OrientedGraph) -> UndirectedGraph:
    """Forget arc directions.  |edges| = |arcs| since g is an orientation."""
    return UndirectedGraph(g.n, g.arcs)


def edge_density(n: int, triples) -> Fraction:
    """|triples| / C(n,3), exact."""
    if n < 3:
        raise ValueError("edge density needs at least 3 vertices")
    return Fraction(len(triples), comb(n, 3))


def has_induced_directed_c4(g: OrientedGraph):
    """Detect an induced directed 4-cycle.

    Returns (True, (a,b,c,d)) with the witness in cycle order when some
    4-set induces exactly the four arcs a->b->c->d->a, else (False, None).
    """
    for quad in itertools.combinations(range(g.n), 4):
        induced = sum(
            1 for (u, v) in itertools.permutations(quad, 2) if (u, v) in g.arcs
        )
        if induced != 4:
            continue
        a = quad[0]
        for (b, c, d) in itertools.permutations(quad[1:]):
            if (
                (a, b) in g.arcs
                and (b, c) in g.arcs
                and (c, d) in g.arcs
                and (d, a) in g.arcs
            ):
                return True, (a, b, c, d)
    return False, None


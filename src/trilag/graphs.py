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
edge_density takes the vertex count beside it, and
has_induced_directed_c4 answers with a bool alone.  An OrientedGraph
keeps n and its frozenset of arcs, an UndirectedGraph n and its edges,
and neither defines equality, a hash or a repr: compare those fields.
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


def _vertex_count(n) -> int:
    """n as an int; a non-integer count, such as 2.0, or a negative one is a ValueError."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"non-integer vertex count {n!r}") from None
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return n


class OrientedGraph:
    """Loopless digraph with no antiparallel arcs, on vertices 0..n-1."""

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs) -> None:
        n = _vertex_count(n)
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


class UndirectedGraph:
    """Simple graph; edges stored once as (min,max) pairs."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges) -> None:
        n = _vertex_count(n)
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


def _arc_count(g: OrientedGraph, x: int, y: int, z: int) -> int:
    """The number of arcs of g inside {x,y,z}."""
    return sum((u, v) in g.arcs for (u, v) in itertools.permutations((x, y, z), 2))


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
        if _arc_count(g, x, y, z) <= 1 or _dominator(g, x, y, z) is not None:
            triples.append((x, y, z))
    return frozenset(triples)


def build_cf(g: OrientedGraph) -> frozenset[tuple[int, int, int]]:
    """Triples with at least two induced arcs and no dominator.

    Complement of build_f within all C(n,3) triples.
    """
    triples = []
    for (x, y, z) in itertools.combinations(range(g.n), 3):
        if _arc_count(g, x, y, z) >= 2 and _dominator(g, x, y, z) is None:
            triples.append((x, y, z))
    return frozenset(triples)


def build_bf(g: UndirectedGraph) -> frozenset[tuple[int, int, int]]:
    """Triples spanning at least two edges of g."""
    triples = []
    for (x, y, z) in itertools.combinations(range(g.n), 3):  # x < y < z: each pair is an edge key
        k = ((x, y) in g.edges) + ((x, z) in g.edges) + ((y, z) in g.edges)
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


def has_induced_directed_c4(g: OrientedGraph) -> bool:
    """Whether some 4-set induces a directed 4-cycle.

    A 4-set does exactly when each of its vertices has one out-arc and one
    in-arc inside it.  Those four arcs send each vertex to the next, and
    with no loop and no antiparallel pair they close into one 4-cycle.
    """
    for quad in itertools.combinations(range(g.n), 4):
        arcs = [(u, v) for (u, v) in itertools.permutations(quad, 2) if (u, v) in g.arcs]
        if len(arcs) == 4 and {u for u, _ in arcs} == {v for _, v in arcs} == set(quad):
            return True
    return False

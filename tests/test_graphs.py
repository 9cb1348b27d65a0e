import itertools
import random
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from trilag.graphs import (
    OrientedGraph,
    UndirectedGraph,
    build_bf,
    build_cf,
    build_f,
    edge_density,
    has_induced_directed_c4,
    underlying,
)
from trilag.harness import orientation_from_index
from trilag.lagrangian import lagrangian_report, pipeline_report

from helpers import (
    all_orientations,
    has_independent_4set,
    merge_chain,
    rand_orientation,
    relabel,
    relabel_triples,
    uniform_weights,
)


def test_oriented_graph_rejects_digons_and_loops():
    with pytest.raises(ValueError, match=r"^antiparallel pair 1<->0: not an orientation$"):
        OrientedGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="^self-loop at 1$"):
        OrientedGraph(2, [(1, 1)])
    with pytest.raises(ValueError, match=r"^endpoint out of range 0\.\.1$"):
        OrientedGraph(2, [(0, 2)])


# pairs that break a rule, more than one in most, and the message of the
# first bad pair in the order given, from OrientedGraph and UndirectedGraph
FIRST_BAD_PAIR = [
    (3, [(0, 1), (3, 0), (1, 1)], "endpoint out of range 0..2", None),
    (3, [(0, 1), (-1, 2)], "endpoint out of range 0..2", None),
    (0, [(0, 1)], "endpoint out of range 0..-1", None),
    (3, [(0, 1), (2, 2), (0, 5)], "self-loop at 2", None),
    (3, [(0, 1), (1, 2), (0, 1), (2, 2)], "duplicate arc 0 1", "duplicate edge 0 1"),
    (3, [(0, 1), (1, 0), (0, 0)], "antiparallel pair 1<->0: not an orientation", "duplicate edge 1 0"),
    (3, [(0, 1), (2, 1), (1, 2), (0, 5)], "antiparallel pair 1<->2: not an orientation", "duplicate edge 1 2"),
    (3, [(0, 1), (0, 1.5), (9, 9)], "non-integer vertex label in (0, 1.5)", None),
]


@pytest.mark.parametrize("cls", [OrientedGraph, UndirectedGraph])
@pytest.mark.parametrize("n,pairs,arc_message,edge_message", FIRST_BAD_PAIR,
                         ids=["range", "negative", "empty", "loop", "duplicate", "reversed", "antiparallel",
                              "label"])
def test_graphs_refuse_the_first_bad_pair_in_order(cls, n, pairs, arc_message, edge_message):
    """Each rule raises its message for the first pair that breaks one; an
    undirected pair given twice, in either order, is a duplicate edge."""
    message = arc_message if cls is OrientedGraph or edge_message is None else edge_message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(n, pairs)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(n, iter(pairs))  # read once, as fileio feeds it


@pytest.mark.parametrize("cls", [OrientedGraph, UndirectedGraph])
def test_graphs_take_only_integer_vertex_labels(cls):
    """A float label, even a whole one, or a fractional label names its pair;
    an integer of another type becomes an int."""
    for label, shown in ((1.0, "1.0"), (1.5, "1.5"), (Fraction(3, 2), "Fraction(3, 2)")):
        with pytest.raises(ValueError, match=rf"^non-integer vertex label in \(0, {re.escape(shown)}\)$"):
            cls(3, [(0, label)])
    g = cls(3, [(np.int64(1), 2)])
    assert [type(v) for pair in (g.arcs if cls is OrientedGraph else g.edges) for v in pair] == [int, int]
    w = uniform_weights(3)
    if cls is OrientedGraph:
        report = pipeline_report(g, w)
        assert report["lagrangian_cf"] == "1/54" and report["all_pass"]
    else:
        assert lagrangian_report(g, w)["lagrangian_bf"]["value"] == "5/162" and merge_chain(g, w)[0] == 3


@pytest.mark.parametrize("cls", [OrientedGraph, UndirectedGraph])
def test_graphs_take_only_an_integer_vertex_count(cls):
    """A float count, even a whole one, or a Fraction is refused by name; an
    integer of another type becomes an int, so range(n) works downstream."""
    for n, shown in ((2.0, "2.0"), (1.5, "1.5"), (Fraction(3), "Fraction(3, 1)")):
        with pytest.raises(ValueError, match=rf"^non-integer vertex count {re.escape(shown)}$"):
            cls(n, [(0, 1)])
    g = cls(np.int64(2), [(0, 1)])
    assert type(g.n) is int
    w = uniform_weights(2)
    assert lagrangian_report(g if cls is UndirectedGraph else underlying(g), w)["lagrangian_bf"]["value"] == "3/32"
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        cls(-1, [])


def test_build_f_examples():
    assert sorted(build_f(OrientedGraph(3, [(0, 1), (0, 2)]))) == [(0, 1, 2)]
    assert sorted(build_f(OrientedGraph(3, [(0, 1)]))) == [(0, 1, 2)]
    assert sorted(build_f(OrientedGraph(3, [(0, 1), (2, 1)]))) == []


def test_build_cf_examples():
    assert sorted(build_cf(OrientedGraph(3, [(0, 1), (2, 1)]))) == [(0, 1, 2)]
    assert sorted(build_cf(OrientedGraph(3, [(0, 1), (0, 2)]))) == []
    assert sorted(build_cf(OrientedGraph(3, []))) == []


def test_build_bf_examples():
    assert sorted(build_bf(UndirectedGraph(3, [(0, 1), (1, 2)]))) == [(0, 1, 2)]
    assert sorted(build_bf(UndirectedGraph(3, [(0, 1)]))) == []
    assert sorted(build_bf(UndirectedGraph(3, [(1, 0), (2, 1)]))) == [(0, 1, 2)]  # edges given high-low
    k4_minus = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert len(build_bf(k4_minus)) == 4


def test_underlying():
    g = OrientedGraph(3, [(0, 1), (2, 1)])
    u = underlying(g)
    assert (type(u), u.n, u.edges) == (UndirectedGraph, 3, {(0, 1), (1, 2)})
    assert underlying(OrientedGraph(3, [])).edges == frozenset()
    tri = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert underlying(tri).edges == {(0, 1), (1, 2), (0, 2)}
    assert len(underlying(g).edges) == len(g.arcs)


def test_edge_density():
    full = frozenset(itertools.combinations(range(4), 3))
    assert edge_density(4, full) == 1
    assert edge_density(5, frozenset()) == 0
    some = frozenset(list(itertools.combinations(range(5), 3))[:7])
    assert edge_density(5, some) == Fraction(7, 10)
    with pytest.raises(ValueError):
        edge_density(2, frozenset())


def test_directed_c4_detection():
    c4 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert has_induced_directed_c4(c4) is True
    chorded = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert has_induced_directed_c4(chorded) is False
    tri = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert has_induced_directed_c4(tri) is False
    # a directed triangle with a pendant arc: four arcs, and every vertex has
    # out-degree 1 (the arc into the triangle) or in-degree 1 (the arc out of it)
    for pendant in ((3, 0), (0, 3)):
        g = OrientedGraph(4, [(0, 1), (1, 2), (2, 0), pendant])
        assert has_induced_directed_c4(g) is False


def test_independent_4set():
    assert has_independent_4set(4, frozenset())[0]
    full = frozenset(itertools.combinations(range(4), 3))
    assert has_independent_4set(4, full) == (False, None)
    with pytest.raises(ValueError):
        has_independent_4set(3, frozenset())


@pytest.mark.parametrize("n", [3, 4])
def test_partition_containment_difference_exhaustive(n):
    """F/CF partition, CF within BF, and the dominator characterization of BF\\CF."""
    for g in all_orientations(n):
        f = build_f(g)
        cf = build_cf(g)
        bf = build_bf(underlying(g))
        assert not (f & cf)
        assert len(f) + len(cf) == comb(n, 3)
        assert cf <= bf
        for t in bf - cf:
            doms = [
                a
                for (a, b, c) in (
                    (t[0], t[1], t[2]),
                    (t[1], t[0], t[2]),
                    (t[2], t[0], t[1]),
                )
                if (a, b) in g.arcs and (a, c) in g.arcs
            ]
            assert len(doms) == 1


def test_bf_minus_cf_is_exactly_the_dominated_triples():
    """On each of the 27 orientations of a triple: the triple lies in BF \\ CF
    iff some vertex has arcs to both others, and then exactly one does.

    Membership in CF and in BF depends only on the arcs inside the triple,
    so both directions hold at every n; together they make the CF triple sum
    the BF one less sum_u x_u e2(N+(u)), and they give L_CF <= L_BF.
    """
    dominated = 0
    for t in range(27):
        g = orientation_from_index(3, t)
        doms = [a for a in range(3) if all((a, b) in g.arcs for b in range(3) if b != a)]
        in_difference = (0, 1, 2) in build_bf(underlying(g)) - build_cf(g)
        assert in_difference == bool(doms), (t, g)
        assert len(doms) <= 1
        dominated += in_difference
    assert dominated == 9  # 3 dominators times 3 states of the other pair


def test_partition_random_n5():
    rng = random.Random(5)
    for _ in range(300):
        g = rand_orientation(rng, 5)
        f, cf = build_f(g), build_cf(g)
        assert not (f & cf)
        assert len(f) + len(cf) == comb(5, 3)
        assert cf <= build_bf(underlying(g))


def test_constructions_commute_with_relabeling():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(3, 6)
        g = rand_orientation(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert relabel_triples(build_f(g), perm) == build_f(relabel(g, perm))
        assert relabel_triples(build_cf(g), perm) == build_cf(relabel(g, perm))
        und = underlying(g)
        assert relabel_triples(build_bf(und), perm) == build_bf(relabel(und, perm))
        assert underlying(relabel(g, perm)).edges == relabel(und, perm).edges

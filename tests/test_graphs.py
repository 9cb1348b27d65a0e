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
from trilag.lagrangian import lagrangian_bf, lagrangian_cf, merge_chain, pipeline_report, uniform_weights

from helpers import all_orientations, has_independent_4set, rand_orientation, relabel, relabel_triples


def test_oriented_graph_rejects_digons_and_loops():
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        OrientedGraph(2, [(1, 1)])
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 2)])


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
        assert lagrangian_cf(g, w) == Fraction(1, 54) and pipeline_report(g, w)["all_pass"]
    else:
        assert lagrangian_bf(g, w) == Fraction(5, 162) and merge_chain(g, w)[0] == 3


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
    k4_minus = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert len(build_bf(k4_minus)) == 4


def test_underlying():
    g = OrientedGraph(3, [(0, 1), (2, 1)])
    assert underlying(g) == UndirectedGraph(3, [(0, 1), (1, 2)])
    assert underlying(OrientedGraph(3, [])) == UndirectedGraph(3, [])
    tri = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert underlying(tri) == UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
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
    found, witness = has_induced_directed_c4(c4)
    assert found
    a, b, c, d = witness
    assert {(a, b), (b, c), (c, d), (d, a)} <= c4.arcs
    chorded = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert has_induced_directed_c4(chorded) == (False, None)
    tri = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert has_induced_directed_c4(tri) == (False, None)


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
        assert underlying(relabel(g, perm)) == relabel(und, perm)

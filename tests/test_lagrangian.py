import random
from fractions import Fraction
from math import lcm

import pytest

from trilag import lagrangian
from trilag.fileio import parse_weights_text
from trilag.graphs import OrientedGraph, UndirectedGraph, build_cf, underlying
from trilag.lagrangian import (
    WeightVector,
    _cf_sums,
    _graph_sums,
    lagrangian_report,
    pipeline_report,
    reduce_report,
)

from helpers import (
    brute_bf_terms,
    brute_cf_terms,
    delete_vertex_oriented,
    huge_denominator_weights,
    merge_chain,
    rand_orientation,
    rand_weights,
    relabel,
    shaped_orientation,
    uniform_weights,
)

UNIFORM3 = WeightVector(3, (1, 1, 1))


def report_values(g, w) -> list[Fraction]:
    """The values that trilag lagrangian reports, as Fractions: [L_CF, L_BF of
    the underlying graph] of an orientation, [L_BF] of an undirected graph."""
    return [Fraction(part["value"]) for part in lagrangian_report(g, w).values()]


def test_weight_vector_invariants():
    with pytest.raises(ValueError, match="^weights sum to 3/4, expected 1$"):
        WeightVector(4, (2, 1))
    with pytest.raises(ValueError, match="^negative weight$"):
        WeightVector(2, (3, -1))
    with pytest.raises(ValueError, match="^weight vector must be nonempty$"):
        WeightVector(1, ())


def test_weight_vector_numerators():
    rng = random.Random(79)
    for _ in range(300):
        w = rand_weights(rng, rng.randint(1, 9), max_part=rng.choice((2, 30)))
        assert isinstance(w.numerators, tuple) and len(w.numerators) == len(w.entries)
        assert sum(w.numerators) == w.denominator == lcm(*(x.denominator for x in w.entries))
        assert all(Fraction(p, w.denominator) == x for p, x in zip(w.numerators, w.entries))
    w = WeightVector(6, (0, 1, 5))
    assert (w.denominator, w.numerators) == (6, (0, 1, 5))
    with pytest.raises(AttributeError):
        w.denominator = 12
    with pytest.raises(AttributeError):
        w.numerators = (0, 2, 10)
    # the parser builds the vector from (d, p), d least for unreduced tokens
    parsed = parse_weights_text("2/4\n3/6\n", 2, "w.txt")
    assert (parsed.denominator, parsed.numerators) == (2, (1, 1))
    parsed = parse_weights_text("0/9\n2/12\n10/12\n", 3, "w.txt")
    assert (parsed.denominator, parsed.numerators) == (6, (0, 1, 5))
    assert parse_weights_text("4/8\n1/4\n2/8\n", 3, "w.txt").denominator == 4
    # the entries are Fractions made on demand
    assert w.entries == (0, Fraction(1, 6), Fraction(5, 6))
    assert all(type(x) is Fraction for x in w.entries)


def test_weight_vector_from_numerators():
    """The one constructor takes (d, p), d not necessarily least, and reduces d to least."""
    w = WeightVector(12, [0, 2, 10])
    assert (w.denominator, w.numerators) == (6, (0, 1, 5))
    for w in (WeightVector(3, (3,)), WeightVector(1, (1,)), uniform_weights(1)):
        assert (w.denominator, w.numerators) == (1, (1,))
    with pytest.raises(ValueError, match="^weights sum to 3/4, expected 1$"):
        WeightVector(8, [4, 2])
    with pytest.raises(ValueError, match="^denominator must be positive, got 0$"):
        WeightVector(0, [0, 0])
    with pytest.raises(ValueError, match="^denominator must be positive, got -2$"):
        WeightVector(-2, [-1, -1])
    for d, p in ((2.0, [1, 1]), (2, [1.0, 1]), (2, [Fraction(1), 1])):
        with pytest.raises(ValueError, match="^denominator and numerators must be integers$"):
            WeightVector(d, p)


def test_lagrangian_cf_values():
    g = OrientedGraph(3, [(0, 1), (2, 1)])
    rendered = lagrangian_report(g, UNIFORM3)["lagrangian_cf"]
    assert rendered == {"value": "2/27", "triple_term": "1/27", "pair_term": "1/27", "quadratic_term": "0"}

    assert report_values(OrientedGraph(3, [(0, 1), (0, 2)]), UNIFORM3)[0] == Fraction(1, 27)

    spike = WeightVector(1, (1, 0, 0))
    for arcs in ([(0, 1), (2, 1)], [(0, 1), (0, 2)], [(1, 2)]):
        assert report_values(OrientedGraph(3, arcs), spike)[0] == 0


def test_lagrangian_bf_values():
    path = UndirectedGraph(3, [(0, 1), (1, 2)])
    rendered = lagrangian_report(path, UNIFORM3)["lagrangian_bf"]
    assert rendered == {"value": "7/81", "triple_term": "1/27", "pair_term": "2/27", "quadratic_term": "2/81"}
    value, triple, pair, quadratic = (Fraction(rendered[key]) for key in
                                      ("value", "triple_term", "pair_term", "quadratic_term"))
    assert value == triple + pair - quadratic

    single = UndirectedGraph(3, [(0, 1)])
    assert report_values(single, UNIFORM3) == [Fraction(5, 162)]

    k2 = UndirectedGraph(2, [(0, 1)])
    assert report_values(k2, WeightVector(2, (1, 1))) == [Fraction(3, 32)]


def test_length_mismatch():
    with pytest.raises(ValueError, match="^weight length 3 != vertex count 4$"):
        lagrangian_report(OrientedGraph(4, []), UNIFORM3)
    with pytest.raises(ValueError, match="^weight length 3 != vertex count 2$"):
        lagrangian_report(UndirectedGraph(2, []), UNIFORM3)
    with pytest.raises(ValueError, match="^weight length 3 != vertex count 4$"):
        pipeline_report(OrientedGraph(4, [(0, 1)]), UNIFORM3)
    for g in (OrientedGraph(2, [(0, 1)]), UndirectedGraph(2, [(0, 1)])):
        for entrance in (merge_chain, lagrangian_report, reduce_report):
            with pytest.raises(ValueError, match="^weight length 3 != vertex count 2$"):
                entrance(g, UNIFORM3)


def test_cf_entrances_refuse_an_undirected_graph(monkeypatch):
    """pipeline_report names the input kind before any sum, whatever the weights."""
    summed = []
    monkeypatch.setattr(lagrangian, "_graph_sums", lambda *args: summed.append(args))
    for g in (UndirectedGraph(3, [(0, 1)]), UndirectedGraph(1, []), underlying(OrientedGraph(4, [(0, 1), (2, 3)]))):
        for w in (uniform_weights(g.n), UNIFORM3):
            with pytest.raises(ValueError, match="^L_CF needs an OrientedGraph, not UndirectedGraph$"):
                pipeline_report(g, w)
    assert summed == []


def test_bf_entrances_read_an_orientation_as_its_underlying_graph():
    """merge_chain, reduce_report and lagrangian_report's L_BF give on an
    orientation what they give on its underlying graph."""
    rng = random.Random(31)
    cases = [(OrientedGraph(4, []), rand_weights(rng, 4)), (OrientedGraph(1, []), uniform_weights(1))]
    for _ in range(200):
        n = rng.randint(2, 9)
        cases.append((rand_orientation(rng, n), rand_weights(rng, n)))
    for g, w in cases:
        und = underlying(g)
        for entrance in (merge_chain, reduce_report):
            assert entrance(g, w) == entrance(und, w)
        assert lagrangian_report(g, w)["lagrangian_bf_underlying"] == lagrangian_report(und, w)["lagrangian_bf"]


def _oracle_json(triple, pair, quadratic) -> dict:
    return {"value": str(triple + pair - quadratic), "triple_term": str(triple),
            "pair_term": str(pair), "quadratic_term": str(quadratic)}


def _assert_matches_oracles(g: OrientedGraph, w: WeightVector) -> None:
    """The report of trilag lagrangian on the orientation and on its
    underlying graph, every value and term."""
    und = underlying(g)
    cf_json, bf_json = _oracle_json(*brute_cf_terms(g, w)), _oracle_json(*brute_bf_terms(und, w))
    assert lagrangian_report(g, w) == {"lagrangian_cf": cf_json, "lagrangian_bf_underlying": bf_json}
    assert lagrangian_report(und, w) == {"lagrangian_bf": bf_json}


def test_against_brute_force_oracles():
    """Every rendered component of both Lagrangians is the string of the
    raw-definition oracles' Fraction.

    The empty graph, transitive tournaments, random tournaments (complete
    underlying graphs) and random orientations on 1..12 vertices, at
    weights with many zeros (parts 0..2) and with parts 0..30, then each
    shape on 2..12 vertices over a 1073-digit common denominator.
    """
    rng = random.Random(101)
    for i in range(2000):
        n = rng.randint(1, 12)
        w = rand_weights(rng, n, max_part=2 if i // 4 % 2 else 30)
        _assert_matches_oracles(shaped_orientation(rng, n, i % 4), w)
    for n in range(2, 13):
        w = huge_denominator_weights(rng, n)
        assert len(str(w.denominator)) == 1073
        _assert_matches_oracles(shaped_orientation(rng, n, n % 4), w)


def test_step_inequality_and_difference_identity():
    """L_CF <= L_BF, with the exact difference formula, on random instances."""
    rng = random.Random(77)
    for _ in range(1000):
        n = rng.randint(2, 6)
        g = rand_orientation(rng, n)
        w = rand_weights(rng, n)
        lcf, lbf = report_values(g, w)
        und = underlying(g)
        assert Fraction(0) <= lcf <= lbf
        rhs = Fraction(0)
        p = w.entries
        for x in range(n):
            s = sum((p[y] for (u, y) in g.arcs if u == x), Fraction(0))
            rhs += p[x] * s * s
        esum = sum((p[u] * p[v] for (u, v) in und.edges), Fraction(0))
        assert lbf - lcf == Fraction(1, 2) * rhs - Fraction(1, 2) * esum * esum


def test_permutation_equivariance():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 6)
        g = rand_orientation(rng, n)
        w = rand_weights(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        wp = [None] * n
        for v in range(n):
            wp[perm[v]] = w.numerators[v]
        wp = WeightVector(w.denominator, wp)
        assert report_values(g, w) == report_values(relabel(g, perm), wp)
        und = underlying(g)
        assert report_values(und, w) == report_values(relabel(und, perm), wp)


def test_zero_weight_vertex_deletion():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(3, 6)
        g = rand_orientation(rng, n)
        w = rand_weights(rng, n - 1)
        v = rng.randrange(n)
        p = w.numerators
        padded = WeightVector(w.denominator, p[:v] + (0,) + p[v:])
        assert report_values(g, padded) == report_values(delete_vertex_oriented(g, v), w)


def test_uniform_cf_triple_term_counts_cf():
    """At weights 1/n the CF triple term is |CF| / n^3: the sweeps' 2n^3 L_CF = 2|CF| + |A| rests on it."""
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(3, 6)
        g = rand_orientation(rng, n)
        w = uniform_weights(n)
        triples, _ = _cf_sums(g, w.numerators, _graph_sums(g, w)[1][0])  # d = n: n^3 times the triple term
        assert triples == len(build_cf(g))

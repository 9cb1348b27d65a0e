import random
from fractions import Fraction
from math import lcm

import pytest

from trilag.graphs import OrientedGraph, UndirectedGraph, build_cf, underlying
from trilag.lagrangian import (
    WeightVector,
    _adjacency,
    _bf_sums,
    _lag_json,
    _orientation_sums,
    lagrangian_bf,
    lagrangian_cf,
    pipeline_report,
    uniform_weights,
)

from helpers import (
    brute_bf_terms,
    brute_cf_terms,
    delete_vertex_oriented,
    huge_denominator_weights,
    rand_orientation,
    rand_weights,
    relabel,
    shaped_orientation,
)

UNIFORM3 = WeightVector([Fraction(1, 3)] * 3)


def test_weight_vector_invariants():
    with pytest.raises(ValueError, match="^weights sum to 3/4, expected 1$"):
        WeightVector([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ValueError, match="^negative weight$"):
        WeightVector([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError, match="^weight vector must be nonempty$"):
        WeightVector([])
    # only rationals: floats are rejected even when they sum to one
    with pytest.raises(ValueError, match="rationals"):
        WeightVector([0.5, 0.5])
    with pytest.raises(ValueError, match="rationals"):
        WeightVector([Fraction(1, 2), 0.5])


def test_weight_vector_numerators():
    rng = random.Random(79)
    for _ in range(300):
        w = rand_weights(rng, rng.randint(1, 9), max_part=rng.choice((2, 30)))
        assert isinstance(w.numerators, tuple) and len(w.numerators) == len(w)
        assert sum(w.numerators) == w.denominator == lcm(*(x.denominator for x in w))
        assert all(Fraction(p, w.denominator) == x for p, x in zip(w.numerators, w))
    w = WeightVector([0, Fraction(1, 6), 1 - Fraction(1, 6)])
    assert (w.denominator, w.numerators) == (6, (0, 1, 5))
    assert all(type(x) is Fraction for x in w)
    with pytest.raises(AttributeError):
        w.denominator = 12
    with pytest.raises(AttributeError):
        w.numerators = (0, 2, 10)


def test_uniform_weights():
    assert list(uniform_weights(1)) == [1]
    assert list(uniform_weights(2)) == [Fraction(1, 2)] * 2
    assert list(uniform_weights(4)) == [Fraction(1, 4)] * 4
    with pytest.raises(ValueError):
        uniform_weights(0)


def test_lagrangian_cf_values():
    g = OrientedGraph(3, [(0, 1), (2, 1)])
    assert lagrangian_cf(g, UNIFORM3) == Fraction(2, 27)
    rendered = _lag_json(3, *_orientation_sums(g, UNIFORM3)[0])
    assert rendered == {"value": "2/27", "triple_term": "1/27", "pair_term": "1/27", "quadratic_term": "0"}

    assert lagrangian_cf(OrientedGraph(3, [(0, 1), (0, 2)]), UNIFORM3) == Fraction(1, 27)

    spike = WeightVector([Fraction(1), Fraction(0), Fraction(0)])
    for arcs in ([(0, 1), (2, 1)], [(0, 1), (0, 2)], [(1, 2)]):
        assert lagrangian_cf(OrientedGraph(3, arcs), spike) == 0


def test_lagrangian_bf_values():
    path = UndirectedGraph(3, [(0, 1), (1, 2)])
    assert lagrangian_bf(path, UNIFORM3) == Fraction(7, 81)
    rendered = _lag_json(3, *_bf_sums(_adjacency(3, path.edges), UNIFORM3.numerators))
    assert rendered == {"value": "7/81", "triple_term": "1/27", "pair_term": "2/27", "quadratic_term": "2/81"}
    value, triple, pair, quadratic = (Fraction(rendered[key]) for key in
                                      ("value", "triple_term", "pair_term", "quadratic_term"))
    assert value == triple + pair - quadratic

    single = UndirectedGraph(3, [(0, 1)])
    assert lagrangian_bf(single, UNIFORM3) == Fraction(5, 162)

    k2 = UndirectedGraph(2, [(0, 1)])
    assert lagrangian_bf(k2, WeightVector([Fraction(1, 2)] * 2)) == Fraction(3, 32)


def test_length_mismatch():
    with pytest.raises(ValueError, match="^weight length 3 != vertex count 4$"):
        lagrangian_cf(OrientedGraph(4, []), UNIFORM3)
    with pytest.raises(ValueError, match="^weight length 3 != vertex count 2$"):
        lagrangian_bf(UndirectedGraph(2, []), UNIFORM3)
    with pytest.raises(ValueError, match="^weight length 3 != vertex count 4$"):
        pipeline_report(OrientedGraph(4, [(0, 1)]), UNIFORM3)


def _oracle_json(triple, pair, quadratic) -> dict:
    return {"value": str(triple + pair - quadratic), "triple_term": str(triple),
            "pair_term": str(pair), "quadratic_term": str(quadratic)}


def _assert_matches_oracles(g: OrientedGraph, w: WeightVector) -> None:
    """The rendered breakdowns of trilag lagrangian, on the orientation's
    sums and on the underlying graph's own, and both values."""
    d = w.denominator
    und = underlying(g)
    cf_json, bf_json = _oracle_json(*brute_cf_terms(g, w)), _oracle_json(*brute_bf_terms(und, w))
    cf, bf, _ = _orientation_sums(g, w)
    assert _lag_json(d, *cf) == cf_json
    assert _lag_json(d, *bf) == bf_json
    assert _lag_json(d, *_bf_sums(_adjacency(und.n, und.edges), w.numerators)) == bf_json
    assert str(lagrangian_cf(g, w)) == cf_json["value"]
    assert str(lagrangian_bf(und, w)) == bf_json["value"]


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
        lcf = lagrangian_cf(g, w)
        und = underlying(g)
        lbf = lagrangian_bf(und, w)
        assert Fraction(0) <= lcf <= lbf
        rhs = Fraction(0)
        for x in range(n):
            s = sum((w[y] for (u, y) in g.arcs if u == x), Fraction(0))
            rhs += w[x] * s * s
        esum = sum((w[u] * w[v] for (u, v) in und.edges), Fraction(0))
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
            wp[perm[v]] = w[v]
        wp = WeightVector(wp)
        assert lagrangian_cf(g, w) == lagrangian_cf(relabel(g, perm), wp)
        und = underlying(g)
        assert lagrangian_bf(und, w) == lagrangian_bf(relabel(und, perm), wp)


def test_zero_weight_vertex_deletion():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(3, 6)
        g = rand_orientation(rng, n)
        w = rand_weights(rng, n - 1)
        v = rng.randrange(n)
        padded = list(w)[:v] + [Fraction(0)] + list(w)[v:]
        padded = WeightVector(padded)
        assert (
            lagrangian_cf(g, padded)
            == lagrangian_cf(delete_vertex_oriented(g, v), w)
        )
        assert (
            lagrangian_bf(underlying(g), padded)
            == lagrangian_bf(underlying(delete_vertex_oriented(g, v)), w)
        )


def test_uniform_cf_triple_term_counts_cf():
    """At weights 1/n the CF triple term is |CF| / n^3: the sweeps' 2n^3 L_CF = 2|CF| + |A| rests on it."""
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(3, 6)
        g = rand_orientation(rng, n)
        (triples, _), _, _ = _orientation_sums(g, uniform_weights(n))  # d = n: n^3 times the triple term
        assert triples == len(build_cf(g))

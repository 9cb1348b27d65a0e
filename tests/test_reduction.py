import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trilag.fileio import parse_weights_text
from trilag.graphs import UndirectedGraph
from trilag.lagrangian import WeightVector, _ratio

from helpers import (
    brute_lagrangian_bf,
    chain_fractions,
    complete_graph,
    merge,
    merge_chain,
    merge_identity_sides,
    merges_complete,
    neighbor_sums,
    non_edges,
    rand_graph,
    rand_weights,
    reduce_oracle,
    uniform_weights,
)

CHERRY = (
    UndirectedGraph(3, [(0, 2), (1, 2)]),
    WeightVector(4, (1, 1, 2)),
)


def test_neighbor_sums_examples():
    assert neighbor_sums(*CHERRY, 0, 1) == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))

    empty = UndirectedGraph(3, [])
    assert neighbor_sums(empty, rand_weights(random.Random(0), 3), 0, 1) == (0, 0, 0)

    star = UndirectedGraph(4, [(0, 2), (1, 2), (2, 3)])
    assert neighbor_sums(star, WeightVector(4, (1, 1, 1, 1)), 0, 1) == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))


def test_merge_examples():
    two = (UndirectedGraph(2, []), WeightVector(2, (1, 1)))
    graph, weights = merge(*two, 0, 1, keep=0)
    assert graph.n == 1 and weights.entries == (1,)

    graph, weights = merge(*CHERRY, 0, 1, keep=0)
    assert (graph.n, graph.edges) == (2, {(0, 1)})
    assert weights.entries == (Fraction(1, 2), Fraction(1, 2))
    assert brute_lagrangian_bf(graph, weights) == Fraction(3, 32)


def test_merge_zero_weight_branch_keeps_lagrangian():
    g = UndirectedGraph(4, [(0, 2), (1, 2), (2, 3)])
    w = WeightVector(4, (0, 2, 1, 1))
    before = brute_lagrangian_bf(g, w)
    after = brute_lagrangian_bf(*merge(g, w, 0, 1, keep=1))  # discards the zero-weight vertex
    assert after == before


def test_merge_identity_examples():
    lhs, rhs = merge_identity_sides(*CHERRY, 0, 1)
    assert lhs == 0 and rhs == 0

    two = (UndirectedGraph(2, []), WeightVector(2, (1, 1)))
    lhs, rhs = merge_identity_sides(*two, 0, 1)
    assert lhs == 0 and rhs == 0


def test_merge_identity_random_with_expansion_oracle():
    """lhs = rhs on random instances, with both Lagrangians re-expanded independently."""
    rng = random.Random(31)
    done = 0
    while done < 2000:
        n = rng.randint(2, 7)
        g = rand_graph(rng, n)
        pairs = non_edges(g)
        if not pairs:
            continue
        w = rand_weights(rng, n)
        a, b = pairs[rng.randrange(len(pairs))]
        lhs, rhs = merge_identity_sides(g, w, a, b)
        assert lhs == rhs

        # independent expansion of the left side
        x, y = w.entries[a], w.entries[b]
        expanded = (
            x * brute_lagrangian_bf(*merge(g, w, a, b, keep=a))
            + y * brute_lagrangian_bf(*merge(g, w, a, b, keep=b))
            - (x + y) * brute_lagrangian_bf(g, w)
        )
        assert expanded == rhs
        done += 1


def test_reduce_complete_input_is_identity():
    for n, seed in ((1, 0), (2, 1), (4, 3), (6, 5)):
        w = rand_weights(random.Random(seed), n)
        d, q, rows, start, final = merge_chain(complete_graph(n), w)
        assert rows == []  # no merge runs
        assert merges_complete(complete_graph(n), rows, q)
        assert (d, q) == (w.denominator, list(w.numerators))
        assert start == final
        assert Fraction(start, 2 * d**4) == brute_lagrangian_bf(complete_graph(n), w)


def test_reduce_empty_graph_collapses_to_point():
    g = UndirectedGraph(3, [])
    d, q, rows, start, final = merge_chain(g, rand_weights(random.Random(9), 3))
    assert q == [d]
    assert len(rows) == 2
    assert merges_complete(g, rows, q)
    assert brute_lagrangian_bf(complete_graph(1), WeightVector(1, (1,))) == final == 0 == start


def test_reduce_cherry():
    d, q, rows, start, final = merge_chain(*CHERRY)
    assert merges_complete(CHERRY[0], rows, q) and len(q) == 2
    weights, trace, start, final = chain_fractions(d, q, rows, start, final)
    assert weights.entries == (Fraction(1, 2), Fraction(1, 2))
    assert len(trace) == 1
    pair, *_, before, after = trace[0]
    assert pair == (0, 1)
    assert after == final == Fraction(3, 32)
    assert before == start == brute_lagrangian_bf(*CHERRY)


def test_reduce_monotone_and_terminates():
    rng = random.Random(41)
    for _ in range(400):
        n = rng.randint(2, 7)
        g = rand_graph(rng, n, p=rng.random())
        w = rand_weights(rng, n)
        start = brute_lagrangian_bf(g, w)
        d, q, rows, *ends = merge_chain(g, w)
        assert merges_complete(g, rows, q)
        weights, trace, returned_start, final = chain_fractions(d, q, rows, *ends)
        assert len(trace) <= n - 1
        assert returned_start == start
        level = start
        for _, _, _, s_a, s_b, s_ab, before, after in trace:
            assert before == level
            assert after >= before
            assert 0 <= s_ab <= min(s_a, s_b)
            assert abs(s_a - s_b) <= 1
            level = after
        assert brute_lagrangian_bf(complete_graph(len(q)), weights) == level == final
        assert level >= start


def _oracle_cases():
    rng = random.Random(53)
    for _ in range(2000):
        n = rng.randint(1, 9)
        # small parts give zero weights and equal weights often
        yield rand_graph(rng, n, p=rng.random()), rand_weights(rng, n, max_part=rng.choice((2, 5, 30)))
    for n in range(1, 10):
        cycle = UndirectedGraph(n, [(v, (v + 1) % n) for v in range(n)] if n >= 3 else [])
        yield UndirectedGraph(n, []), uniform_weights(n)  # every merge an exact tie
        yield cycle, uniform_weights(n)
    zeros = WeightVector(2, (0, 1, 0, 1, 0))
    yield UndirectedGraph(5, [(0, 1), (1, 2), (3, 4)]), zeros
    yield UndirectedGraph(5, []), zeros
    # a common denominator of 1073 digits
    tiny = Fraction(1, 10**1072)
    yield UndirectedGraph(4, [(0, 1), (1, 2)]), parse_weights_text(f"{tiny}\n1/4\n1/4\n{Fraction(1, 2) - tiny}\n", 4, "w.txt")


def test_reduce_matches_object_oracle():
    count = 0
    for g, w in _oracle_cases():
        d, q, rows, start, final = merge_chain(g, w)
        graph, weights, trace, l_start, l_final = reduce_oracle(g, w)
        final_weights, *values = chain_fractions(d, q, rows, start, final)
        assert (final_weights.entries, *values) == (weights.entries, trace, l_start, l_final)
        assert (graph.n, graph.edges) == (len(q), complete_graph(len(q)).edges)
        count += 1
    assert count >= 2000


def test_reduce_leaves_input_weights_unchanged():
    for g, w in itertools.islice(_oracle_cases(), 200):
        before = (w.entries, w.denominator, w.numerators)
        merge_chain(g, w)
        assert (w.entries, w.denominator, w.numerators) == before


def test_weight_length_must_match_order():
    g = UndirectedGraph(3, [(0, 2), (1, 2)])
    short = WeightVector(2, (1, 1))
    with pytest.raises(ValueError, match="weight length 2 != vertex count 3"):
        neighbor_sums(g, short, 0, 1)
    with pytest.raises(ValueError, match="weight length 2 != vertex count 3"):
        merge(g, short, 0, 1, keep=0)
    with pytest.raises(ValueError, match="weight length 2 != vertex count 3"):
        merge_chain(g, short)
    with pytest.raises(ValueError, match="weight length 2 != vertex count 3"):
        merge_chain(complete_graph(3), short)  # no merge to run


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(), st.integers(min_value=1))
@example(0, 1)
@example(0, 7)
@example(-5, 1)
@example(-36, 12)
@example(36, 12)
@example(-3, 768)
def test_ratio_is_the_string_of_its_fraction(num, den):
    assert _ratio(num, den) == str(Fraction(num, den))
    assert _ratio(num * den, den) == str(num)  # a multiple of den
    assert _ratio(num, 1) == str(num)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(-(10**4290), 10**4290), st.sampled_from((1, 2, 24, 768)), st.integers(1, 4))
@example(10**1072 // 2, 1, 1)
@example(-(10**4288), 768, 4)
def test_ratio_over_powers_of_a_1073_digit_denominator(num, factor, power):
    """The reports' denominators d, 2 d^4, 24 d^4 and 768 d^4 at d = 10^1072."""
    den = factor * 10 ** (1072 * power)
    assert _ratio(num, den) == str(Fraction(num, den))

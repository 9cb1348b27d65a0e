import random
from fractions import Fraction

import numpy as np
import pytest

from trilag import simplex
from trilag.graphs import complete_graph
from trilag.lagrangian import WeightVector, _closed_form_numerator, _g_numerator, _majorized, lagrangian_bf
from trilag.simplex import (
    ascend,
    closed_form,
    gradient,
    maximize,
    project_to_simplex,
    round_point_exact,
)

from trilag.fileio import parse_weights_text

from helpers import (
    ascend_one,
    closed_form_oracle,
    majorization_oracle,
    rand_weights,
    trivariate_g_oracle,
)

HALF = Fraction(1, 2)


def exact_closed_form(w) -> Fraction:
    """The closed form from its integer core, on the (d, p) of a WeightVector."""
    w = WeightVector(w)
    return Fraction(_closed_form_numerator(w.denominator, w.numerators), 24 * w.denominator**4)


def exact_g(x1, x2, x3) -> Fraction:
    """g from its integer core; the point is completed to the simplex by 1 - x1 - x2 - x3."""
    w = WeightVector([x1, x2, x3, 1 - x1 - x2 - x3])
    return Fraction(_g_numerator(w.denominator, *w.numerators[:3]), 24 * w.denominator**4)


def majorized(w) -> bool:
    """The majorization core on the (d, p) of sorted-descending w."""
    w = WeightVector(w)
    return _majorized(w.denominator, w.numerators)


def test_closed_form_values():
    assert exact_closed_form([HALF, HALF]) == Fraction(3, 32)
    assert exact_closed_form([Fraction(1)]) == 0
    assert exact_closed_form([Fraction(1, 3)] * 3) == Fraction(5, 54)


def test_closed_form_exact_and_float():
    """Exact input is evaluated in floats too: only maximize evaluates exactly."""
    value = closed_form([Fraction(1, 3)] * 3)
    assert type(value) is not Fraction and abs(value - 5 / 54) < 1e-15
    assert abs(closed_form([0.5, 0.5]) - 3 / 32) < 1e-15
    rows = closed_form(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert rows.shape == (2,) and abs(rows[0] - 3 / 32) < 1e-15 and rows[1] == 0
    with pytest.raises(ValueError):
        closed_form(np.array([[0.5, 0.5], [0.5, 0.25]]))


def test_closed_form_rejects_off_simplex():
    with pytest.raises(ValueError):
        closed_form([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ValueError):
        closed_form([Fraction(3, 2), Fraction(-1, 2)])


def test_closed_form_matches_definition_examples():
    for w in ([HALF, HALF], [Fraction(1, 3)] * 3, [Fraction(1)]):
        assert lagrangian_bf(complete_graph(len(w)), WeightVector(w)) == exact_closed_form(w)


def test_closed_form_matches_definition_random():
    rng = random.Random(59)
    for _ in range(10_000):
        n = rng.randint(1, 10)
        w = rand_weights(rng, n, max_part=12)
        assert lagrangian_bf(complete_graph(n), w) == exact_closed_form(w)


def test_gradient_hand_values():
    g = gradient([0.5, 0.5])
    assert np.allclose(g, [0.0, 0.0], atol=1e-15)
    g = gradient([1.0, 0.0])
    assert np.allclose(g, [-0.5, 0.0], atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-5
    for n in (2, 5, 8):
        for _ in range(100):
            x = rng.dirichlet(np.ones(n))
            grad = gradient(x)
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                fd = (
                    closed_form_float(x + e) - closed_form_float(x - e)
                ) / (2 * step)
                assert abs(grad[i] - fd) < 1e-6


def closed_form_float(x):
    s2 = float(np.dot(x, x))
    s3 = float(np.sum(np.asarray(x) ** 3))
    return (1 - s3) / 6 - (1 - s2) ** 2 / 8


def test_project_to_simplex():
    p = project_to_simplex(np.array([0.4, 0.4]))
    assert np.allclose(p, [0.5, 0.5])
    p = project_to_simplex(np.array([2.0, 0.0]))
    assert np.allclose(p, [1.0, 0.0])
    x = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_to_simplex(x), x)
    for _ in range(50):
        v = np.random.default_rng(1).normal(size=6)
        p = project_to_simplex(v)
        assert p.min() >= 0 and abs(p.sum() - 1) < 1e-12


def test_batch_rows_equal_vector_calls():
    """gradient, project_to_simplex and the float closed_form reduce along the last axis."""
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        points = rng.dirichlet(np.ones(n), size=9)
        v = rng.normal(size=(9, n))
        grads, projections, values = gradient(points), project_to_simplex(v), closed_form(points)
        assert grads.shape == projections.shape == (9, n) and values.shape == (9,)
        for i in range(9):
            assert np.array_equal(grads[i], gradient(points[i]))
            assert np.array_equal(projections[i], project_to_simplex(v[i]))
            assert values[i] == closed_form(points[i])


@pytest.mark.parametrize(
    "seed,restarts,tol", [(0, 100, 1e-8), (1, 10, 1e-8), (2, 10, 1e-8), (3, 10, 1e-300)]
)
def test_ascend_rows_match_per_start_oracle(seed, restarts, tol):
    """Every row of the batch ends exactly where the per-start loop ends.

    Seed 0 with 100 restarts is the CLI default run.  No row can meet
    tol = 1e-300, so there every row backtracks until no step is accepted.
    """
    for n in range(1, 13):
        starts = np.random.default_rng(seed).dirichlet(np.ones(n), size=restarts)
        x, fx, residual, converged, iterations = ascend(starts, tol)
        assert 1 <= iterations <= 4000
        for i, start in enumerate(starts):
            ox, ofx, oresidual, oconverged = ascend_one(start, tol)
            assert np.array_equal(x[i], ox), (n, i)
            assert (fx[i], residual[i], converged[i]) == (ofx, oresidual, oconverged), (n, i)


def test_maximize_seed23_n8_converges_every_restart():
    """With step 1 this run hit the 4000-iteration cap with 99 of 100 restarts converged."""
    res = maximize(8, restarts=100, seed=23)
    assert res.value == Fraction(3, 32)
    assert res.restarts_converged == 100
    assert res.iterations == 756


@pytest.mark.parametrize("n", [3, 8])
def test_one_step_halves_the_error_at_the_maximizer(n):
    """From v + eps d, v = (1/2, 1/2, 0, ...), one ascent step lands at v - (eps/2) d
    along the split d = (1, -1, 0, ...) and at v + (eps/2) d into the zero
    coordinate, d = (-1/2, -1/2, 1, 0, ...): factors 1 - STEP/4 and 1 - STEP/12."""
    eps = 1e-5
    v = np.zeros(n)
    v[:2] = 0.5
    split, into_zero = np.zeros(n), np.zeros(n)
    split[:2] = 1.0, -1.0
    into_zero[:3] = -0.5, -0.5, 1.0
    x, *_ = ascend(np.array([v + eps * split, v + eps * into_zero]), tol=1e-12, max_iter=1)
    for row, d, factor in ((x[0], split, -0.5), (x[1], into_zero, 0.5)):
        assert np.allclose(row - v, factor * eps * d, rtol=0, atol=1e-3 * eps), (n, factor)


def test_final_rows_meet_tol_at_step_one():
    """Every final row's step-1 residual |P(x + grad) - x| is below tol too, so
    stopping on the step-STEP gradient mapping is no looser than stopping on it."""
    tol = 1e-8
    for n in range(2, 13):
        starts = np.random.default_rng(0).dirichlet(np.ones(n), size=100)
        x, _, _, converged, _ = ascend(starts, tol)
        assert converged.all(), n
        residual = np.sqrt(((project_to_simplex(x + gradient(x)) - x) ** 2).sum(axis=-1))
        assert (residual < tol).all(), (n, residual.max())


def test_maximize_draws_starts_as_one_batch():
    """The (restarts x n) Dirichlet draw equals the sequential one-start draws."""
    for n in (1, 2, 5, 12):
        batch = np.random.default_rng(0).dirichlet(np.ones(n), size=30)
        rng = np.random.default_rng(0)
        assert np.array_equal(batch, [rng.dirichlet(np.ones(n)) for _ in range(30)])


def test_round_point_exact():
    pt = round_point_exact([0.4999999997, 0.5000000003])
    assert pt == (HALF, HALF)
    assert sum(round_point_exact([0.1234, 0.8766])) == 1


def test_maximize_n2_against_grid_oracle():
    """Dense 1e-3 grid on the 1-simplex as the independent global-max oracle."""
    grid_best = max(closed_form_float(np.array([t / 1000, 1 - t / 1000])) for t in range(1001))
    assert abs(grid_best - 3 / 32) < 1e-6  # oracle locates the extremum itself
    res = maximize(2, restarts=20, seed=4)
    assert abs(float(res.value) - grid_best) < 1e-9
    assert abs(res.point[0] - 0.5) < 1e-4 and abs(res.point[1] - 0.5) < 1e-4


def test_maximize_n1():
    res = maximize(1, restarts=1, seed=0)
    assert res.value == 0 and res.point == (1.0,)


def test_maximize_n8_two_point_support():
    res = maximize(8, restarts=60, seed=2)
    assert abs(float(res.value) - 3 / 32) < 1e-9
    top = sorted(res.point, reverse=True)
    assert abs(top[0] - 0.5) < 1e-4 and abs(top[1] - 0.5) < 1e-4
    assert all(abs(v) < 1e-4 for v in top[2:])


def test_maximize_never_exceeds_bound():
    for n in range(1, 13):
        res = maximize(n, restarts=12, seed=n)
        assert res.value <= Fraction(3, 32)
        assert float(res.float_value) <= 3 / 32 + 1e-9


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_maximize_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        maximize(3, restarts=2, tol=tol)


def test_maximize_stats_without_convergence():
    res = maximize(4, restarts=15, seed=3, tol=1e-300)  # no row can get that close
    assert res.restarts_converged == 0 and not res.converged
    assert 1 <= res.iterations <= 4000


@pytest.mark.parametrize("first", [np.inf, -np.inf])
def test_maximize_point_ignores_last_bit_of_objective(monkeypatch, first):
    """Nudging each restart's fx by one ulp, in alternating directions, keeps the point."""
    reported = {n: maximize(n) for n in range(2, 13)}

    def nudged_ascend(starts, tol):
        x, fx, *rest = ascend(starts, tol)
        toward = np.where(np.arange(len(fx)) % 2, -first, first)
        return (x, np.nextafter(fx, toward), *rest)

    monkeypatch.setattr(simplex, "ascend", nudged_ascend)
    for n, res in reported.items():
        assert res.value == Fraction(3, 32)
        assert maximize(n).point == res.point


def test_maximize_deterministic_in_seed():
    a = maximize(5, restarts=10, seed=123)
    b = maximize(5, restarts=10, seed=123)
    assert a == b


def test_trivariate_g_values():
    assert exact_g(HALF, HALF, Fraction(0)) == Fraction(3, 32)
    assert exact_g(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)) == Fraction(5, 54)
    assert exact_g(Fraction(1), Fraction(0), Fraction(0)) == 0


def test_majorization_examples():
    assert majorized([Fraction(1, 4)] * 4)
    assert majorized([HALF, HALF, Fraction(0), Fraction(0)])
    # tail entries all equal to the third coordinate: equality case
    assert majorized([Fraction(6, 10), Fraction(2, 10), Fraction(1, 10), Fraction(1, 10)])
    assert majorized([Fraction(6, 10), Fraction(2, 10), Fraction(15, 100), Fraction(5, 100)])


def test_majorization_random_sorted():
    rng = random.Random(67)
    for _ in range(400):
        n = rng.randint(3, 9)
        w = sorted(rand_weights(rng, n), reverse=True)
        assert majorized(w)
        assert exact_closed_form(w) <= exact_g(w[0], w[1], w[2])


def _tail_cases():
    rng = random.Random(71)
    for _ in range(2000):
        n = rng.randint(1, 9)
        # small parts give zero weights and equal weights often
        w = list(rand_weights(rng, n, max_part=rng.choice((2, 5, 30))))
        # entries 0 and 1 given as ints as well
        yield [int(v) if v.denominator == 1 and rng.random() < 0.5 else v for v in w]
    for n in range(1, 10):
        yield [Fraction(1, n)] * n  # every coordinate tied
    yield [1]
    yield [0, 1, 0, 0]
    yield [Fraction(0), HALF, 0, HALF, Fraction(0)]
    # a common denominator of 1073 digits
    yield list(parse_weights_text("1e-1072\n1/2\n0.4" + "9" * 1071 + "\n"))


def test_integer_tail_matches_fraction_oracles():
    """The integer cores of the closed form, g and the majorization, on the
    (d, p) of a WeightVector, equal their Fraction oracles."""
    count = 0
    for w in _tail_cases():
        value = exact_closed_form(w)
        assert type(value) is Fraction and value == closed_form_oracle(w)
        padded = sorted(w, reverse=True) + [0] * (3 - len(w))
        assert majorized(padded) is majorization_oracle(padded)
        x1, x2, x3 = padded[:3]
        g = exact_g(x1, x2, x3)
        assert type(g) is Fraction and g == trivariate_g_oracle(x1, x2, x3)
        count += 1
    assert count >= 2000

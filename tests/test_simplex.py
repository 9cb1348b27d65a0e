import random
from fractions import Fraction

import numpy as np
import pytest

from trilag import simplex
from trilag.lagrangian import WeightVector, _closed_form_numerator, _g_numerator, _majorized, lagrangian_report
from trilag.simplex import (
    _gradient,
    _objective,
    ascend,
    maximize,
    project_to_simplex,
    round_point_exact,
)

from trilag.fileio import parse_weights_text

from helpers import (
    _project_1d,
    ascend_one,
    brute_lagrangian_bf,
    closed_form_oracle,
    complete_graph,
    fraction_weights,
    majorization_oracle,
    rand_weights,
    trivariate_g_oracle,
)

HALF = Fraction(1, 2)


def exact_closed_form(w: WeightVector) -> Fraction:
    """The closed form from its integer core, on the (d, p) of a WeightVector."""
    return Fraction(_closed_form_numerator(w.denominator, w.numerators), 24 * w.denominator**4)


def exact_g(x1, x2, x3) -> Fraction:
    """g from its integer core; the point is completed to the simplex by 1 - x1 - x2 - x3."""
    w = fraction_weights([x1, x2, x3, 1 - x1 - x2 - x3])
    return Fraction(_g_numerator(w.denominator, *w.numerators[:3]), 24 * w.denominator**4)


def majorized(w) -> bool:
    """The majorization core on the (d, p) of sorted-descending rational entries w."""
    w = fraction_weights(w)
    return _majorized(w.denominator, w.numerators)


def test_closed_form_values():
    assert exact_closed_form(WeightVector(2, (1, 1))) == Fraction(3, 32)
    assert exact_closed_form(WeightVector(1, (1,))) == 0
    assert exact_closed_form(WeightVector(3, (1, 1, 1))) == Fraction(5, 54)


def test_closed_form_exact_and_float():
    """The float objective, on exact input made floats: only maximize evaluates exactly."""
    value = _objective(np.asarray([Fraction(1, 3)] * 3, dtype=float))[0]
    assert type(value) is not Fraction and abs(value - 5 / 54) < 1e-15
    assert abs(_objective(np.array([0.5, 0.5]))[0] - 3 / 32) < 1e-15
    rows, s2 = _objective(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert rows.shape == s2.shape == (2,) and abs(rows[0] - 3 / 32) < 1e-15 and rows[1] == 0
    assert list(s2) == [0.5, 1.0]
    with pytest.raises(ValueError):
        _objective(np.array([[0.5, 0.5], [0.5, 0.25]]))


def test_closed_form_rejects_off_simplex():
    with pytest.raises(ValueError):
        _objective(np.asarray([Fraction(1, 2), Fraction(1, 4)], dtype=float))
    with pytest.raises(ValueError):
        _objective(np.asarray([Fraction(3, 2), Fraction(-1, 2)], dtype=float))


NAN = float("nan")


@pytest.mark.parametrize(
    "x", [[NAN, 1.0], [[0.5, 0.5], [NAN, 1.0]], [NAN]], ids=["vector", "batch", "n1"]
)
def test_closed_form_rejects_nan(x):
    """A NaN coordinate puts a row off the simplex: its sum fails the check."""
    with pytest.raises(ValueError, match="coordinates must sum to 1"):
        _objective(np.asarray(x, dtype=float))


def test_closed_form_messages_and_empty_input():
    with pytest.raises(ValueError, match="negative coordinate"):
        _objective(np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="coordinates must sum to 1"):
        _objective(np.array([0.5, 0.25]))
    with pytest.raises(ValueError, match="coordinates must sum to 1"):
        _objective(np.asarray([], dtype=float))
    empty = _objective(np.zeros((0, 3)))[0]
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_closed_form_matches_definition_examples():
    """The integer closed form is L_BF of the complete graph from the raw definition."""
    for w in (WeightVector(2, (1, 1)), WeightVector(3, (1, 1, 1)), WeightVector(1, (1,))):
        assert brute_lagrangian_bf(complete_graph(len(w.numerators)), w) == exact_closed_form(w)


def test_closed_form_matches_definition_random():
    """The integer closed form is the L_BF that trilag lagrangian reports on the complete graph."""
    rng = random.Random(59)
    for _ in range(10_000):
        n = rng.randint(1, 10)
        w = rand_weights(rng, n, max_part=12)
        assert lagrangian_report(complete_graph(n), w)["lagrangian_bf"]["value"] == str(exact_closed_form(w))


def test_gradient_hand_values():
    for x, want in (([0.5, 0.5], [0.0, 0.0]), ([1.0, 0.0], [-0.5, 0.0])):
        x = np.array(x)
        assert np.allclose(_gradient(x, (x * x).sum(axis=-1, keepdims=True)), want, atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-5
    for n in (2, 5, 8):
        for _ in range(100):
            x = rng.dirichlet(np.ones(n))
            grad = _gradient(x, (x * x).sum(axis=-1, keepdims=True))
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


def _adversarial_rows(n, rng):
    """Rows that stress the projection's sort and its choice of rho, for one n."""
    rows = [np.zeros(n), np.full(n, 1.0 / n), -np.ones(n), np.full(n, 7.0)]
    rows += [np.eye(n)[i] for i in range(n)]  # one-hot rows: already on the simplex
    rows += [rng.dirichlet(np.ones(n)) for _ in range(3)]  # on the simplex
    rows += [-rng.random(n) * 10.0**e for e in (-12, 0, 12)]  # all negative
    rows += [rng.normal(size=n) * 10.0**e for e in range(-12, 13, 3)]
    rows += [rng.integers(-2, 3, size=n) * 10.0**e for e in (-12, -3, 0, 5, 12)]  # ties
    # short decimals and small fractions, whose sums land on rounding boundaries
    decimals = [-0.6, -0.4, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7]
    rows += [rng.choice(decimals, n) for _ in range(200)]
    rows += [rng.integers(-3, 4, size=n) / rng.integers(1, 8) for _ in range(200)]
    rows.append(np.where(np.arange(n) % 2, 1e12, -1e12))
    return np.array(rows)


def test_projection_matches_its_oracle_bit_for_bit():
    """project_to_simplex equals the 1-D oracle of tests/helpers on every row,
    for vector, (rows x n) and (blocks x rows x n) input."""
    rng = np.random.default_rng(29)
    for n in range(1, 13):
        rows = _adversarial_rows(n, rng)
        expected = np.array([_project_1d(row) for row in rows])
        for row, want in zip(rows, expected):
            assert np.array_equal(project_to_simplex(row), want), (n, row)
        assert np.array_equal(project_to_simplex(rows), expected), n
        even = len(rows) // 2 * 2
        blocks = rows[:even].reshape(2, -1, n)
        assert np.array_equal(project_to_simplex(blocks), expected[:even].reshape(blocks.shape)), n


def test_batch_rows_equal_vector_calls():
    """_gradient, project_to_simplex and the float objective reduce along the last axis."""
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        points = rng.dirichlet(np.ones(n), size=9)
        v = rng.normal(size=(9, n))
        grads = _gradient(points, (points * points).sum(axis=-1, keepdims=True))
        projections, values = project_to_simplex(v), _objective(points)[0]
        assert grads.shape == projections.shape == (9, n) and values.shape == (9,)
        for i in range(9):
            x = points[i]
            assert np.array_equal(grads[i], _gradient(x, (x * x).sum(axis=-1, keepdims=True)))
            assert np.array_equal(projections[i], project_to_simplex(v[i]))
            assert values[i] == _objective(x)[0]


@pytest.mark.parametrize(
    "seed,restarts,tol", [(0, 100, 1e-8), (1, 10, 1e-8), (2, 10, 1e-8), (3, 10, 1e-300)]
)
def test_ascend_rows_match_per_start_oracle(monkeypatch, seed, restarts, tol):
    """Every row of the batch ends exactly where the per-start loop ends.

    Seed 0 with 100 restarts is the CLI default run.  At TOL = 1e-300 a row
    backtracks until no step is accepted, unless it lands exactly on a
    maximizer, where its residual is 0.
    """
    monkeypatch.setattr(simplex, "TOL", tol)
    for n in range(1, 13):
        starts = np.random.default_rng(seed).dirichlet(np.ones(n), size=restarts)
        x, fx, residual, converged, iterations, long_steps = ascend(starts)
        assert 1 <= iterations <= simplex.MAX_ITER
        oracle_long_steps = 0
        for i, start in enumerate(starts):
            ox, ofx, oresidual, oconverged, olong = ascend_one(start, tol)
            assert np.array_equal(x[i], ox), (n, i)
            assert (fx[i], residual[i], converged[i]) == (ofx, oresidual, oconverged), (n, i)
            oracle_long_steps += olong
        assert long_steps == oracle_long_steps, n


def _stall_and_converge_batch(n):
    """The exact maximizer, which converges at iteration 1 for any TOL > 0; the
    end point of a row that stalled at TOL = 1e-300, which at that TOL stalls
    again at iteration 1; and fresh flat-Dirichlet starts."""
    maximizer = np.zeros(n)
    maximizer[:2] = 0.5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "TOL", 1e-300)
        stalled = ascend(np.random.default_rng(n).dirichlet(np.ones(n), size=1))[0][0]
    fresh = np.random.default_rng(0).dirichlet(np.ones(n), size=10)
    return np.vstack([maximizer, fresh[:5], stalled, fresh[5:]])


@pytest.mark.parametrize("max_iter", [1, 2, 3, 6])
@pytest.mark.parametrize("tol", [1e-8, 1e-300])
def test_ascend_rows_match_oracle_under_a_cap(monkeypatch, max_iter, tol):
    """With MAX_ITER = k every row ends where the per-start loop capped at k
    ends, also when one row converges and another stalls in the same step.
    The largest k, 6, is one below the fewest iterations an uncapped batch
    takes (7, at n = 2)."""
    batches = {n: _stall_and_converge_batch(n) for n in range(2, 13)}  # built uncapped
    monkeypatch.setattr(simplex, "MAX_ITER", max_iter)
    monkeypatch.setattr(simplex, "TOL", tol)
    for n, starts in batches.items():
        x, fx, residual, converged, iterations, long_steps = ascend(starts)
        assert iterations == max_iter, n  # fresh rows are still live at the cap
        ends = [ascend_one(start, tol, max_iter) for start in starts]
        assert long_steps == sum(end[4] for end in ends), n
        for i, (ox, ofx, oresidual, oconverged, _) in enumerate(ends):
            assert np.array_equal(x[i], ox), (n, i)
            assert (residual[i], converged[i]) == (oresidual, oconverged), (n, i)
            assert fx[i] == _objective(ox[None])[0][0], (n, i)
            assert fx[i] == ofx, (n, i)
        assert converged[0] and residual[0] == 0.0, n
        if tol == 1e-300:  # row 6 stalls in step 1, where row 0 converges
            assert not converged[6] and residual[6] > 0 and np.array_equal(x[6], starts[6]), n
        assert np.isfinite(residual).all(), n


def test_maximize_seed23_n8_converges_every_restart():
    """With step 1 this run hit the 4000-iteration cap with 99 of 100 restarts
    converged; with step 6 and no long trials it took 756 iterations, and
    with long trials taken only beyond step 6 and when they beat it, 31."""
    res = maximize(8, seed=23)
    assert res["value_exact"] == "3/32"
    assert res["stats"] == {"iterations": 25, "long_steps": 669, "restarts_converged": 100}


@pytest.mark.parametrize("n", [3, 6, 12])
def test_long_steps_leave_the_flat_saddle(monkeypatch, n):
    """From (1/3, 1/3, 1/3, 0, ...) + e (1, -1, 0, ...), where the curvature
    along (1, -1, 0, ...) is 0, every start reaches 3/32 within 64 outer
    iterations.  Step 6 alone takes 102, 270 and 740 for these e."""
    monkeypatch.setattr(simplex, "MAX_ITER", 64)
    starts = np.zeros((3, n))
    starts[:, :3] = 1 / 3
    for row, e in zip(starts, (1e-2, 3e-3, 1e-3)):
        row[:2] += e, -e
    x, _, _, converged, _, long_steps = ascend(starts)
    assert converged.all() and long_steps > 0, n
    for row in x:
        assert exact_closed_form(round_point_exact(row)) == Fraction(3, 32), (n, row)


def test_maximize_seeds_0_to_9():
    """Every run for n = 2..12 at seeds 0-9 converges all restarts to a
    permutation of (1/2, 1/2, 0, ...) within 64 outer iterations (at most
    449 with step 6 alone)."""
    for seed in range(10):
        for n in range(2, 13):
            res = maximize(n, seed=seed)
            assert res["value_exact"] == "3/32", (n, seed)
            assert res["stats"]["restarts_converged"] == 100, (n, seed)
            assert res["stats"]["iterations"] <= 64, (n, seed)
            assert sorted(res["exact_point"]) == ["0"] * (n - 2) + ["1/2"] * 2, (n, seed)


@pytest.mark.parametrize("n", [3, 8])
def test_one_step_halves_the_error_at_the_maximizer(monkeypatch, n):
    """From v + eps d, v = (1/2, 1/2, 0, ...), one ascent step lands at v - (eps/2) d
    along the split d = (1, -1, 0, ...) and at v + (eps/2) d into the zero
    coordinate, d = (-1/2, -1/2, 1, 0, ...): factors 1 - STEP/4 and 1 - STEP/12."""
    eps = 1e-5
    v = np.zeros(n)
    v[:2] = 0.5
    split, into_zero = np.zeros(n), np.zeros(n)
    split[:2] = 1.0, -1.0
    into_zero[:3] = -0.5, -0.5, 1.0
    monkeypatch.setattr(simplex, "TOL", 1e-12)
    monkeypatch.setattr(simplex, "MAX_ITER", 1)
    x, *_ = ascend(np.array([v + eps * split, v + eps * into_zero]))
    for row, d, factor in ((x[0], split, -0.5), (x[1], into_zero, 0.5)):
        assert np.allclose(row - v, factor * eps * d, rtol=0, atol=1e-3 * eps), (n, factor)


def test_final_rows_bound_the_step_one_residual():
    """At every seed, a final row's step-1 residual r1 = |P(x + grad) - x|
    lies between its step-STEP residual and STEP times it, so below
    STEP * TOL.  |P(x + t grad) - x| does not decrease with t, and the same
    length over t does not increase; 1e-15 allows for rounding."""
    for seed in range(10):
        for n in range(2, 13):
            starts = np.random.default_rng(seed).dirichlet(np.ones(n), size=100)
            x, _, residual, *_ = ascend(starts)
            grad = _gradient(x, (x * x).sum(axis=-1, keepdims=True))
            r1 = np.sqrt(((project_to_simplex(x + grad) - x) ** 2).sum(axis=-1))
            assert (residual <= r1 + 1e-15).all(), (seed, n, (residual - r1).max())
            assert (r1 <= simplex.STEP * residual).all(), (seed, n)
            assert (simplex.STEP * residual < simplex.STEP * simplex.TOL).all(), (seed, n, residual.max())


def test_maximize_draws_starts_as_one_batch():
    """The (restarts x n) Dirichlet draw equals the sequential one-start draws."""
    for n in (1, 2, 5, 12):
        batch = np.random.default_rng(0).dirichlet(np.ones(n), size=30)
        rng = np.random.default_rng(0)
        assert np.array_equal(batch, [rng.dirichlet(np.ones(n)) for _ in range(30)])


def test_round_point_exact():
    pt = round_point_exact([0.4999999997, 0.5000000003])
    assert pt.entries == (HALF, HALF)
    assert sum(round_point_exact([0.1234, 0.8766]).entries) == 1
    # coordinates below 0 round to 0; a point that rounds to all zeros is refused
    assert round_point_exact([-1e-12, 0.5, 0.5]).entries == (0, HALF, HALF)
    for point in ([0.0, 0.0], [-0.3, 0.0]):
        with pytest.raises(ValueError, match="^cannot renormalize the zero vector$"):
            round_point_exact(point)


def test_maximize_n2_against_grid_oracle():
    """Dense 1e-3 grid on the 1-simplex as the independent global-max oracle."""
    grid_best = max(closed_form_float(np.array([t / 1000, 1 - t / 1000])) for t in range(1001))
    assert abs(grid_best - 3 / 32) < 1e-6  # oracle locates the extremum itself
    res = maximize(2, seed=4)
    assert abs(res["value"] - grid_best) < 1e-9
    assert abs(res["point"][0] - 0.5) < 1e-4 and abs(res["point"][1] - 0.5) < 1e-4


def test_maximize_n1():
    res = maximize(1, seed=0)
    assert res["value_exact"] == "0" and res["exact_point"] == ["1"]
    assert res["point"] == [1.0]


def test_maximize_n8_two_point_support():
    res = maximize(8, seed=2)
    assert abs(res["value"] - 3 / 32) < 1e-9
    top = sorted(res["point"], reverse=True)
    assert abs(top[0] - 0.5) < 1e-4 and abs(top[1] - 0.5) < 1e-4
    assert all(abs(v) < 1e-4 for v in top[2:])


def test_maximize_never_exceeds_bound():
    for n in range(1, 13):
        res = maximize(n, seed=n)
        assert Fraction(res["value_exact"]) <= Fraction(3, 32)
        assert _objective(np.asarray(res["point"], dtype=float))[0] <= 3 / 32 + 1e-9


def test_maximize_stats_without_convergence(monkeypatch):
    monkeypatch.setattr(simplex, "TOL", 0.0)  # no residual is below 0
    res = maximize(4, seed=3)
    assert res["stats"]["restarts_converged"] == 0 and not res["converged"]
    assert 1 <= res["stats"]["iterations"] <= simplex.MAX_ITER


@pytest.mark.parametrize("first", [np.inf, -np.inf])
def test_maximize_point_ignores_last_bit_of_objective(monkeypatch, first):
    """Nudging each restart's fx by one ulp, in alternating directions, keeps the point."""
    reported = {n: maximize(n, seed=0) for n in range(2, 13)}

    def nudged_ascend(starts):
        x, fx, *rest = ascend(starts)
        toward = np.where(np.arange(len(fx)) % 2, -first, first)
        return (x, np.nextafter(fx, toward), *rest)

    monkeypatch.setattr(simplex, "ascend", nudged_ascend)
    for n, res in reported.items():
        assert res["value_exact"] == "3/32"
        assert maximize(n, seed=0)["point"] == res["point"]


def test_maximize_tie_break_keeps_the_tuple_key(monkeypatch):
    """Among exact ties, signed zeros included, the smallest row by the list
    key is the one the old tuple(x[i]) key picked: the first in batch order."""
    rows = [
        [0.5, 0.5, 0.0], [0.5, 0.5, -0.0], [-0.0, 0.5, 0.5], [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5], [0.5, -0.0, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0],
    ]
    values = [3 / 32] * 7 + [0.0]  # the last row is smaller but not tied
    rng = np.random.default_rng(5)
    for _ in range(40):
        order = rng.permutation(len(rows))
        x, fx = np.array(rows)[order], np.array(values)[order]
        residual = np.arange(len(rows), dtype=float)  # names the reported row

        def fake_ascend(starts):
            return x.copy(), fx.copy(), residual, np.ones(len(x), dtype=bool), 1, 0

        monkeypatch.setattr(simplex, "ascend", fake_ascend)
        old = min(np.flatnonzero(fx >= fx.max() - simplex.RANK_TOL), key=lambda i: tuple(x[i]))
        assert maximize(3, seed=0)["residual"] == residual[old]
        assert rows[order[old]] in ([-0.0, 0.5, 0.5], [0.0, 0.5, 0.5])


def test_maximize_deterministic_in_seed():
    a = maximize(5, seed=123)
    b = maximize(5, seed=123)
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
        v = rand_weights(rng, n)
        w = sorted(v.entries, reverse=True)
        assert majorized(w)
        assert exact_closed_form(v) <= exact_g(w[0], w[1], w[2])


def _tail_cases():
    rng = random.Random(71)
    for _ in range(2000):
        n = rng.randint(1, 9)
        # small parts give zero weights and equal weights often
        w = rand_weights(rng, n, max_part=rng.choice((2, 5, 30))).entries
        # entries 0 and 1 given as ints as well
        yield [int(v) if v.denominator == 1 and rng.random() < 0.5 else v for v in w]
    for n in range(1, 10):
        yield [Fraction(1, n)] * n  # every coordinate tied
    yield [1]
    yield [0, 1, 0, 0]
    yield [Fraction(0), HALF, 0, HALF, Fraction(0)]
    # a common denominator of 1073 digits
    yield list(parse_weights_text("1e-1072\n1/2\n0.4" + "9" * 1071 + "\n", 3, "w.txt").entries)


def test_integer_tail_matches_fraction_oracles():
    """The integer cores of the closed form, g and the majorization, on the
    (d, p) of a WeightVector, equal their Fraction oracles."""
    count = 0
    for w in _tail_cases():
        value = exact_closed_form(fraction_weights(w))
        assert type(value) is Fraction and value == closed_form_oracle(w)
        padded = sorted(w, reverse=True) + [0] * (3 - len(w))
        assert majorized(padded) is majorization_oracle(padded)
        x1, x2, x3 = padded[:3]
        g = exact_g(x1, x2, x3)
        assert type(g) is Fraction and g == trivariate_g_oracle(x1, x2, x3)
        count += 1
    assert count >= 2000

"""Closed-form complete-graph Lagrangian and its maximization on the simplex.

On the complete graph the Lagrangian collapses to a function of the power
sums alone:

    f(x) = (1/6)(1 - sum x_i^3) - (1/8)(1 - sum x_i^2)^2

which is maximized over the probability simplex by projected gradient
ascent with backtracking line search from seeded random restarts.  All
restarts run as one (restarts x n) array: the float objective, gradient
and projection work along the last axis, and each row keeps its own step
and stopping rule.  The float argmax is then rounded to rationals and
re-evaluated exactly, so the reported value carries no floating-point
doubt.

The first trial step, STEP = 6, comes from the curvature at the maximizer
v = (1/2, 1/2, 0, ...), where the gradient vanishes.  To first order in
e, an offset e (1, -1, 0, ...) splitting the two halves has gradient
-(e/4)(1, -1, 0, ...), so a step of size t multiplies it by 1 - t/4.  An
offset e (-1/2, -1/2, 1, 0, ...) into a zero coordinate has gradient
(3e/8, 3e/8, e/4, 0, ...); the projection takes t e/3 back from each of
the three support coordinates, so the step multiplies it by 1 - t/12.
Step 1 gives 3/4 and 11/12, hundreds of iterations per start.  t = 6
gives -1/2 and 1/2; at t = 8 the split factor reaches -1 and the ascent
no longer converges.  The stopping residual is the gradient-mapping norm
|P(x + t grad) - x| / t at t = STEP.

The trivariate bound function

    g(x1,x2,x3) = (1/6)(1 - x1^3 - x2^3 - x3^3)
                - (1/8)(1 - x1^2 - x2^2 - x3(1 - x1 - x2))^2

dominates f at any sorted simplex point (majorization of the square sum),
reducing the global bound to positivity of 3/32 - g on
D = {x1 >= x2 >= x3 >= 0, x1+x2+x3 <= 1}, which the certifier module
establishes.  g is evaluated in exact arithmetic only.

Exact input is evaluated on integers: with d the least common denominator
of the coordinates and p = d x their integer numerators, g and the exact
closed form sum and compare ints over the one denominator d and build one
Fraction each from two ints at the end.  Each exact function is a
validating entrance around one unchecked integer core on (d, p):
_closed_form_numerator and _g_numerator give 24 d^4 times the closed form
and g, and _majorized is the majorization test.  The pipeline, whose
numerators come from the merge chain, calls the cores directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FLOAT_SIMPLEX_TOL = 1e-9
# restarts whose objectives differ by less than this are tied: rounding puts
# the float sums at one optimum up to about 1.3e-16 apart (n = 2..12)
RANK_TOL = 1e-15


def _numerators(x) -> tuple[int, list[int]]:
    """(d, p): d the least common denominator of exact x, p = d x as ints."""
    ratios = [v.as_integer_ratio() for v in x]
    d = math.lcm(*(q for _, q in ratios))
    return d, [a * (d // q) for a, q in ratios]


def _check_numerators(d: int, p) -> None:
    """Raise unless p / d is on the simplex: every p >= 0 and sum(p) == d."""
    if any(v < 0 for v in p):
        raise ValueError("negative coordinate")
    if sum(p) != d:
        raise ValueError("coordinates must sum to 1")


def _simplex_numerators(x) -> tuple[int, list[int]]:
    """_numerators of exact x, checked by _check_numerators."""
    d, p = _numerators(x)
    _check_numerators(d, p)
    return d, p


def _check_simplex(x):
    """(d, p) of exact x (see _numerators), None for float x.

    Raises on constraint violation either way; float input is checked row
    by row along its last axis.
    """
    if all(isinstance(v, (Fraction, int)) for v in x):
        return _simplex_numerators(x)
    arr = np.asarray(x, dtype=float)
    if (arr < -FLOAT_SIMPLEX_TOL).any():
        raise ValueError("negative coordinate")
    if (np.abs(arr.sum(axis=-1) - 1.0) > FLOAT_SIMPLEX_TOL).any():
        raise ValueError("coordinates must sum to 1")
    return None


def _closed_form_numerator(d: int, p) -> int:
    """24 d^4 f(p / d) = 4d(d^3 - sum p^3) - 3(d^2 - sum p^2)^2, unchecked."""
    d2 = d * d
    s2 = sum(v * v for v in p)
    s3 = sum(v * v * v for v in p)
    return 4 * d * (d2 * d - s3) - 3 * (d2 - s2) ** 2


def closed_form(x):
    """(1/6)(1 - sum x^3) - (1/8)(1 - sum x^2)^2 on the simplex.

    Exact input (Fractions/ints) gives an exact Fraction: with p = d x,
    _closed_form_numerator(d, p) / (24 d^4).  Float input is
    reduced along its last axis: a vector gives a float, a (rows x n) array
    one value per row.
    """
    exact = _check_simplex(x)
    if exact is not None:
        d, p = exact
        return Fraction(_closed_form_numerator(d, p), 24 * d**4)
    arr = np.asarray(x, dtype=float)
    s2 = (arr * arr).sum(axis=-1)
    s3 = (arr**3).sum(axis=-1)
    return (1.0 - s3) / 6.0 - (1.0 - s2) ** 2 / 8.0


def gradient(x) -> np.ndarray:
    """Gradient of the closed form along the last axis.

    Component i is -x_i^2/2 + (1 - sum x^2) x_i / 2; a (rows x n) array
    gives one gradient per row.
    """
    arr = np.asarray(x, dtype=float)
    s2 = (arr * arr).sum(axis=-1, keepdims=True)
    return -(arr**2) / 2.0 + (1.0 - s2) * arr / 2.0


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} along the last axis (sort-based)."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    rows = v.reshape(-1, n)
    u = np.sort(rows, axis=1)[:, ::-1]
    css = u.cumsum(axis=1)
    positive = u + (1.0 - css) / np.arange(1, n + 1) > 0
    # rho is the last positive index; for finite input index 0 always is
    rho = n - 1 - positive[:, ::-1].argmax(axis=1)
    lam = (1.0 - css[np.arange(len(rows)), rho]) / (rho + 1.0)
    return np.maximum(v + lam.reshape(v.shape[:-1] + (1,)), 0.0)


@dataclass(frozen=True)
class OptResult:
    """Best ascent outcome, with the float argmax re-verified exactly.

    value is the exact closed form at exact_point (the argmax rounded to
    rationals with denominator <= 10^6 and renormalized); float_value is
    the raw ascent objective.  iterations counts the outer iterations of
    the batched ascent (the most any one start took), restarts_converged
    the starts that ended with residual < tol.
    """

    n: int
    value: Fraction
    point: tuple[float, ...]
    exact_point: tuple[Fraction, ...]
    float_value: float
    restarts: int
    seed: int
    converged: bool
    residual: float
    iterations: int
    restarts_converged: int


ARMIJO = 1e-4
MAX_HALVINGS = 60
STEP = 6.0  # first trial step; the module docstring derives it


def ascend(starts, tol: float, max_iter: int = 4000):
    """Projected gradient ascent with Armijo backtracking, one start per row.

    Each row follows its own ascent: from step STEP, halve up to
    MAX_HALVINGS times until the Armijo condition holds.  A row stops when
    its residual, the gradient-mapping norm |P(x + STEP grad) - x| / STEP,
    falls below tol (converged) or when no step is accepted; only the rows
    still active are advanced.  Returns the final points, their objective
    values, residuals and converged flags, and the number of outer
    iterations run.
    """
    x = np.array(starts, dtype=float)
    fx = closed_form(x)
    residual = np.full(len(x), np.inf)
    converged = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    iterations = 0
    while active.size and iterations < max_iter:
        iterations += 1
        xa = x[active]
        grad = gradient(xa)
        moved = project_to_simplex(xa + STEP * grad)
        res = np.sqrt(((moved - xa) ** 2).sum(axis=-1)) / STEP
        residual[active] = res
        done = res < tol
        if done.any():
            converged[active[done]] = True
            active, xa, grad, moved = active[~done], xa[~done], grad[~done], moved[~done]
            if not active.size:
                break
        trial = moved
        fa = fx[active]
        searching = np.arange(active.size)  # positions in active still halving
        for k in range(MAX_HALVINGS):
            if k:
                trial = project_to_simplex(xa[searching] + STEP * 0.5**k * grad[searching])
            ft = closed_form(trial)
            slope = (grad[searching] * (trial - xa[searching])).sum(axis=-1)
            accepted = ft > fa[searching] + ARMIJO * slope
            rows = active[searching[accepted]]
            x[rows], fx[rows] = trial[accepted], ft[accepted]
            searching = searching[~accepted]
            if not searching.size:
                break
        else:
            active = np.delete(active, searching)  # no step accepted: these rows stop
    return x, fx, residual, converged, iterations


def round_point_exact(point, max_denominator: int = 10**6):
    """Round floats to rationals with bounded denominator and renormalize to sum 1."""
    fracs = [Fraction(float(p)).limit_denominator(max_denominator) for p in point]
    fracs = [max(f, Fraction(0)) for f in fracs]
    total = sum(fracs)
    if total == 0:
        raise ValueError("cannot renormalize the zero vector")
    return tuple(f / total for f in fracs)


def maximize(n: int, restarts: int = 100, seed: int = 0, tol: float = 1e-8) -> OptResult:
    """Best closed-form value over the (n-1)-simplex from seeded random starts.

    Starts are flat-Dirichlet samples, ascended together as one
    (restarts x n) batch.  Every restart within RANK_TOL of the best float
    objective ties, so last-bit differences in the sums cannot pick among
    symmetric optima; the lexicographically smallest tied point wins, and
    is rounded to rationals and re-evaluated exactly.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    starts = np.random.default_rng(seed).dirichlet(np.ones(n), size=restarts)
    x, fx, residual, converged, iterations = ascend(starts, tol)
    best = min(np.flatnonzero(fx >= fx.max() - RANK_TOL), key=lambda i: tuple(x[i]))
    exact_point = round_point_exact(x[best])
    return OptResult(
        n=n,
        value=closed_form(exact_point),
        point=tuple(float(v) for v in x[best]),
        exact_point=exact_point,
        float_value=float(fx[best]),
        restarts=restarts,
        seed=seed,
        converged=bool(converged[best]),
        residual=float(residual[best]),
        iterations=iterations,
        restarts_converged=int(converged.sum()),
    )


def _g_numerator(d: int, p1: int, p2: int, p3: int) -> int:
    """24 d^4 g(p1/d, p2/d, p3/d) = 4d(d^3 - sum p_i^3) - 3q^2, unchecked,
    with q = d^2 - p1^2 - p2^2 - p3(d - p1 - p2)."""
    d2 = d * d
    q = d2 - p1 * p1 - p2 * p2 - p3 * (d - p1 - p2)
    return 4 * d * (d2 * d - p1**3 - p2**3 - p3**3) - 3 * q * q


def trivariate_g(x1, x2, x3) -> Fraction:
    """The trivariate domination function g on D = {x1>=x2>=x3>=0, sum<=1}.

    Exact: inputs must be Fractions or ints; raises ValueError otherwise
    and outside D.  With p = d x, g = _g_numerator(d, p1, p2, p3) / (24 d^4).
    """
    if not all(isinstance(v, (Fraction, int)) for v in (x1, x2, x3)):
        raise ValueError("trivariate_g takes rationals (Fraction or int)")
    d, (p1, p2, p3) = _numerators((x1, x2, x3))
    if not (p1 >= p2 >= p3 >= 0 and p1 + p2 + p3 <= d):
        x1, x2, x3 = Fraction(x1), Fraction(x2), Fraction(x3)
        raise ValueError(f"({x1},{x2},{x3}) outside the sorted domain D")
    return Fraction(_g_numerator(d, p1, p2, p3), 24 * d**4)


def _majorized(d: int, p) -> bool:
    """sum p^2 <= p1^2 + p2^2 + p3(d - p1 - p2) for the numerators p = d x of
    sorted-descending x with at least 3 coordinates, unchecked."""
    p1, p2, p3 = p[:3]
    return sum(v * v for v in p) <= p1 * p1 + p2 * p2 + p3 * (d - p1 - p2)


def majorization_bound_check(w) -> bool:
    """For sorted-descending exact weights, verify the square-sum majorization.

    Checks sum x^2 <= x1^2 + x2^2 + x3(1 - x1 - x2) exactly, on the
    numerators p = d x (see _majorized); with it, closed_form(w) <=
    g(x1,x2,x3) follows, which the pipeline checks on its own values.
    Raises on unsorted input.
    """
    w = list(w)
    if len(w) < 3:
        raise ValueError("need at least 3 coordinates (pad with zeros)")
    d, p = _simplex_numerators(w)
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError("weights must be sorted descending")
    return _majorized(d, p)

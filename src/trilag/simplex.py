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

The exact value at the rounded argmax comes from the integer core
_closed_form_numerator of trilag.lagrangian, on the (d, p) of a
WeightVector.  This module imports numpy for the optimizer, and the
package loads it only when one of its names is first used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lagrangian import WeightVector, _closed_form_numerator

FLOAT_SIMPLEX_TOL = 1e-9
# restarts whose objectives differ by less than this are tied: rounding puts
# the float sums at one optimum up to about 1.3e-16 apart (n = 2..12)
RANK_TOL = 1e-15
MAX_DENOMINATOR = 10**6


def closed_form(x):
    """(1/6)(1 - sum x^3) - (1/8)(1 - sum x^2)^2 on the simplex, in floats.

    Reduced along the last axis: a vector gives a float, a (rows x n) array
    one value per row.  Raises ValueError when any row is off the simplex
    by more than FLOAT_SIMPLEX_TOL.
    """
    arr = np.asarray(x, dtype=float)
    if (arr < -FLOAT_SIMPLEX_TOL).any():
        raise ValueError("negative coordinate")
    if (np.abs(arr.sum(axis=-1) - 1.0) > FLOAT_SIMPLEX_TOL).any():
        raise ValueError("coordinates must sum to 1")
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


def round_point_exact(point):
    """Round floats to rationals with denominator at most MAX_DENOMINATOR and renormalize to sum 1."""
    fracs = [Fraction(float(p)).limit_denominator(MAX_DENOMINATOR) for p in point]
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
    w = WeightVector(exact_point)
    return OptResult(
        n=n,
        value=Fraction(_closed_form_numerator(w.denominator, w.numerators), 24 * w.denominator**4),
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

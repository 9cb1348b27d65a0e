"""Closed-form complete-graph Lagrangian and its maximization on the simplex.

On the complete graph the Lagrangian collapses to a function of the power
sums alone:

    f(x) = (1/6)(1 - sum x_i^3) - (1/8)(1 - sum x_i^2)^2

which is maximized over the probability simplex by projected gradient
ascent with backtracking line search from RESTARTS seeded random starts.
They run as one (RESTARTS x n) array: the float objective, gradient
and projection work along the last axis, and each row keeps its own step
and stopping rule.  The rows still ascending are held in compact arrays and
written back into the batch only as each one stops.  The objective of each
accepted point is computed once, and its s2 = sum x^2 serves the gradient
at the next step.  The float argmax is then rounded to rationals and
re-evaluated exactly, so maximize, which builds the optimize report,
reports a value with no floating-point doubt.  The seed is the only
setting: the restart count RESTARTS, the stopping tolerance TOL and the
iteration cap MAX_ITER are module constants, read at call time.

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

STEP alone is slow near a face barycentre such as (1/3, 1/3, 1/3, 0, ...),
a saddle of value 5/54.  There the curvature along (1, -1, 0, ...) is 0,
so from an offset e a step of 6 escapes only as fast as 1/e: 102, 270 and
740 iterations from e = 1e-2, 3e-3 and 1e-3.  So each iteration builds
two trials of every row, the STEP trial and a long trial, stacked for one
projection and one objective call.  The long step is the Barzilai-Borwein
length ss/sy of the row's last step s and gradient change y, sy = -s.y:
the inverse of the downward curvature that step met.  Where sy <= 0 it
met none, and the length is the cap T_MAX.  From its second iteration a
row takes the long trial whenever it passes the Armijo condition, also
when it is shorter than STEP; near the maximizer ss/sy lies between 4 and
12, the inverse curvatures 1/4 and 1/12 above, where STEP alone contracts
only by 1/2 per step.  Otherwise the row takes the STEP trial or backtracks
from it, so each row still ascends, and the residual and the stopping rule
are those of the STEP trial.  T_MAX = 384 comes from the outer iterations
of the runs for n = 2..12 at seeds 0-39 under this rule:

    T_MAX   worst run   total   seed 0
       96         126    9394      246
      192          69    9070      224
      384          41    8983      229

384 takes the fewest, in the worst run and in total.  On seeds 40-99 the
worst run is 260, 45 and 31 and the total 14281, 13491 and 13474 at the
three caps.  At any cap the stopping rule bounds a final row's step-1
residual |P(x + grad) - x| by STEP * TOL, not by TOL
(test_final_rows_bound_the_step_one_residual): at 384 some row exceeds
TOL at seeds 4-7 and 9, by up to 48%.

The exact value comes from the integer core _closed_form_numerator of
trilag.lagrangian, on the (d, p) of a WeightVector.  This module imports
numpy, and the package loads it only when one of its names is first used.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .lagrangian import WeightVector, _closed_form_numerator

FLOAT_SIMPLEX_TOL = 1e-9
# restarts whose objectives differ by less than this are tied: rounding puts
# the float sums at one optimum up to about 1.3e-16 apart (n = 2..12)
RANK_TOL = 1e-15
MAX_DENOMINATOR = 10**6
RESTARTS = 100
TOL = 1e-8
MAX_ITER = 4000


def _objective(arr):
    """The checked closed form of each row of a float array, and s2 = sum x^2.

    The one place the objective is computed: ascend keeps s2 for the
    gradient at the point.  Raises ValueError when any row is off the
    simplex by more than FLOAT_SIMPLEX_TOL, or has a NaN coordinate.
    """
    if (arr < -FLOAT_SIMPLEX_TOL).any():
        raise ValueError("negative coordinate")
    # written so that a NaN sum fails the check too
    if not (abs(arr.sum(axis=-1) - 1.0) <= FLOAT_SIMPLEX_TOL).all():
        raise ValueError("coordinates must sum to 1")
    s2 = (arr * arr).sum(axis=-1)
    s3 = (arr**3).sum(axis=-1)
    return (1.0 - s3) / 6.0 - (1.0 - s2) ** 2 / 8.0, s2


def _gradient(arr, s2):
    """The gradient at arr along the last axis, given s2 = sum x^2 with that
    axis kept: component i is -x_i^2/2 + (1 - s2) x_i / 2."""
    return -(arr**2) / 2.0 + (1.0 - s2) * arr / 2.0


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} along the last axis (sort-based)."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    rows = v.reshape(-1, n)
    u = np.sort(rows, axis=1)[:, ::-1]
    # shift[:, j] = (1 - (u_0 + ... + u_j)) / (j + 1), the shift keeping j + 1 coordinates
    shift = (1.0 - u.cumsum(axis=1)) / np.arange(1, n + 1)
    # rho is the last index where u + shift > 0; for finite input index 0 always is
    rho = (n - 1) - (u + shift > 0)[:, ::-1].argmax(axis=1)
    lam = shift[np.arange(len(rows)), rho]
    return np.maximum(v + lam.reshape(v.shape[:-1] + (1,)), 0.0)


ARMIJO = 1e-4
MAX_HALVINGS = 60
STEP = 6.0  # first trial step; the module docstring derives it
T_MAX = 384.0  # cap on the long trial step; the module docstring gives the reason


def _long_step(s, y):
    """Each row's long trial step from its last step s and gradient change y.

    The Barzilai-Borwein length ss/sy, with sy = -s.y, capped at T_MAX;
    T_MAX where sy <= 0, where the step met no downward curvature.  It can
    be shorter than STEP, and ascend tries it all the same.
    """
    ss = (s * s).sum(axis=-1)
    sy = -(s * y).sum(axis=-1)
    t = np.full(len(s), T_MAX)
    curved = sy > 0
    t[curved] = np.minimum(ss[curved] / sy[curved], T_MAX)
    return t


def ascend(starts):
    """Projected gradient ascent with Armijo backtracking, one start per row.

    Each row follows its own ascent.  Every iteration builds two trials of
    each row, the STEP trial P(x + STEP grad) and the long trial
    P(x + t grad) with t = _long_step(s, y) (t = STEP in the first
    iteration), stacked in one (2, rows, n) array for one projection and
    one objective call.  From the second iteration on a row takes the long
    trial if it passes the Armijo condition; otherwise it takes the STEP
    trial if that passes, and otherwise it halves the step from STEP up to
    MAX_HALVINGS times until the Armijo condition holds.  A row stops when
    its residual, the gradient-mapping norm |P(x + STEP grad) - x| / STEP,
    falls below TOL (converged) or when no step is accepted; only the rows
    still active are advanced, for at most MAX_ITER iterations.  Returns
    the final points, their objective values, residuals and converged
    flags, the number of outer iterations run and the number of long
    trials taken, shorter than STEP or not.

    The active rows live in compact arrays: live[i] is the row of the
    batch whose point, value and s2 are xa[i], fa[i] and s2a[i], and whose
    last step and the gradient it was taken along are s[i] and gprev[i].
    A row is written back into the full arrays only when it stops.
    """
    x = np.array(starts, dtype=float)
    fx, s2 = _objective(x)
    residual = np.full(len(x), np.inf)
    converged = np.zeros(len(x), dtype=bool)
    live, xa, fa, s2a, res = np.arange(len(x)), x, fx, s2, residual
    iterations = long_steps = 0
    while live.size and iterations < MAX_ITER:
        iterations += 1
        grad = _gradient(xa, s2a[:, None])
        # no step taken yet in the first iteration, so no long step either
        t = _long_step(s, grad - gprev)[:, None] if iterations > 1 else STEP
        trials = project_to_simplex(np.stack((xa + STEP * grad, xa + t * grad)))
        res = np.sqrt(((trials[0] - xa) ** 2).sum(axis=-1)) / STEP
        done = res < TOL
        if done.any():
            rows = live[done]
            x[rows], fx[rows], residual[rows] = xa[done], fa[done], res[done]
            converged[rows] = True
            keep = ~done
            live, xa, fa, grad, res = (a[keep] for a in (live, xa, fa, grad, res))
            if not live.size:
                break
            trials = trials[:, keep]
        ft, s2t = _objective(trials)
        ok = ft > fa + ARMIJO * (grad * (trials - xa)).sum(axis=-1)
        long = ok[1] & (iterations > 1)
        long_steps += int(np.count_nonzero(long))
        moved = np.where(long[:, None], trials[1], trials[0])
        ft, s2t = np.where(long, ft[1], ft[0]), np.where(long, s2t[1], s2t[0])
        refused = np.flatnonzero(~(long | ok[0]))
        if refused.size:
            # halve the step for the refused rows; moved, ft and s2t take what they accept
            for k in range(1, MAX_HALVINGS):
                xr, gr = xa[refused], grad[refused]
                trial = project_to_simplex(xr + STEP * 0.5**k * gr)
                fr, s2r = _objective(trial)
                ok = fr > fa[refused] + ARMIJO * (gr * (trial - xr)).sum(axis=-1)
                took = refused[ok]
                moved[took], ft[took], s2t[took] = trial[ok], fr[ok], s2r[ok]
                refused = refused[~ok]
                if not refused.size:
                    break
            else:
                # no step accepted: these rows stop where they are
                rows = live[refused]
                x[rows], fx[rows], residual[rows] = xa[refused], fa[refused], res[refused]
                keep = np.ones(live.size, dtype=bool)
                keep[refused] = False
                live, xa, grad, moved, ft, s2t, res = (
                    a[keep] for a in (live, xa, grad, moved, ft, s2t, res)
                )
        s, gprev = moved - xa, grad
        xa, fa, s2a = moved, ft, s2t
    if live.size:  # stopped by MAX_ITER
        x[live], fx[live], residual[live] = xa, fa, res
    return x, fx, residual, converged, iterations, long_steps


def round_point_exact(point) -> WeightVector:
    """Round floats to rationals with denominator at most MAX_DENOMINATOR,
    clamp them at 0 and renormalize to sum 1: the WeightVector(sum(p), p)
    of their numerators p over their least common denominator."""
    fracs = [max(Fraction(float(v)).limit_denominator(MAX_DENOMINATOR), 0) for v in point]
    d = lcm(*(f.denominator for f in fracs))
    p = [f.numerator * (d // f.denominator) for f in fracs]
    if not any(p):
        raise ValueError("cannot renormalize the zero vector")
    return WeightVector(sum(p), p)


def maximize(n: int, seed: int) -> dict:
    """The optimize report: the best closed-form value on the (n-1)-simplex.

    RESTARTS flat-Dirichlet starts drawn from seed are ascended as one
    (RESTARTS x n) batch.  Every restart within RANK_TOL of the best float
    objective ties, so last-bit differences in the sums cannot pick among
    symmetric optima; the lexicographically smallest tied point wins.  It
    is rounded by round_point_exact and re-evaluated exactly as
    value_exact.  stats counts the outer iterations of the batch (the most
    any one start took, at most MAX_ITER), long_steps, the Barzilai-Borwein
    trials the starts took in place of the STEP trial, shorter than STEP or
    not, and restarts_converged, the starts that ended with residual < TOL.
    At n = 1 every start is the simplex's one point (1).
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n == 1:
        # the 0-simplex is the one point (1); numpy scales each drawn row by
        # the reciprocal of its sum, which leaves some rows one ulp below 1
        starts = np.ones((RESTARTS, 1))
    else:
        starts = np.random.default_rng(seed).dirichlet(np.ones(n), size=RESTARTS)
    x, fx, residual, converged, iterations, long_steps = ascend(starts)
    tied = np.flatnonzero(fx >= fx.max() - RANK_TOL)
    points = x[tied].tolist()
    best = tied[min(range(len(tied)), key=points.__getitem__)]
    w = round_point_exact(x[best])
    value = Fraction(_closed_form_numerator(w.denominator, w.numerators), 24 * w.denominator**4)
    return {
        "n": n,
        "value": float(value),
        "value_exact": str(value),
        "point": [float(v) for v in x[best]],
        "exact_point": [str(v) for v in w.entries],
        "restarts": RESTARTS,
        "seed": seed,
        "residual": float(residual[best]),
        "converged": bool(converged[best]),
        "stats": {
            "iterations": iterations,
            "long_steps": long_steps,
            "restarts_converged": int(converged.sum()),
        },
    }

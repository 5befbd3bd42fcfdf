"""Threshold location, width, sharpness, and inequality checks.

For a nontrivial monotone structure the failure probability p -> mu_p is
strictly increasing from 0 to 1, so every level alpha has a unique
crossing point p(alpha).  ``locate`` inverts the curve inside a bracket
[lo, hi] that always holds the crossing: it picks each evaluation point
by a Newton step in log-odds (logit mu against logit p), started from a
stage-by-stage approximate inversion, and falls back to bisection
whenever that step is unsafe (the safeguarded Newton of Press et al.,
*Numerical Recipes*, 3rd ed., section 9.4).  Razor-sharp and nearly flat
curves alike end with a bracket no wider than tol, as under plain
bisection, in a handful of evaluations instead of 40-47.  ``width``
packages the transition interval p(1-eps) - p(eps), and the ``check_*``
functions evaluate the curve inequalities every monotone structure must
(or, for the Gaussian isoperimetric one, asymptotically should) satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

from .exact_eval import EvaluationError, availability, derivative
from .structures import KOutOfN, Product, StructureExpr, majority

# A check "holds" when its normalized slack clears this floor; the margin
# absorbs double rounding in exactly-tight cases.
SLACK_TOL = 1e-12

_NORMAL = NormalDist()


@dataclass(frozen=True)
class ThresholdReport:
    """Transition interval of a structure at level epsilon.

    ``width`` is p_hi - p_lo where mu_{p_lo} = eps and mu_{p_hi} = 1 - eps;
    ``sharpness_ratio`` normalizes it by p_half (1 - p_half), the scale on
    which a family's threshold counts as sharp when the ratio drops to 0.
    ``tol`` is the width of the final bracket on p around each located
    point; the induced level error is tol times the local slope plus the
    evaluation error bound.
    """

    epsilon: float
    p_lo: float
    p_hi: float
    width: float
    p_half: float
    sharpness_ratio: float
    tol: float

    def __post_init__(self):
        slack = 2.0 * self.tol
        ordered = (
            -slack <= self.p_lo <= self.p_half + slack
            and self.p_half <= self.p_hi + slack
            and self.p_hi <= 1.0 + slack
        )
        if not ordered or self.width < -slack:
            raise EvaluationError(f"inconsistent threshold report: {self}")


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality; slack >= 0 means satisfied with margin.

    ``slack`` is oriented so that larger is safer regardless of whether the
    inequality reads lhs >= rhs or lhs <= rhs, and ``holds`` is just
    slack >= -SLACK_TOL.
    """

    name: str
    p: float
    lhs: float
    rhs: float
    holds: bool
    slack: float


def _make_check(name: str, p: float, lhs: float, rhs: float, orient_ge: bool) -> BoundCheck:
    slack = (lhs - rhs) if orient_ge else (rhs - lhs)
    return BoundCheck(name, p, lhs, rhs, slack >= -SLACK_TOL, slack)


def locate(expr: StructureExpr, alpha: float, tol: float = 1e-12) -> float:
    """The unique p with mu_p(expr) = alpha, inside a shrinking bracket.

    The bracket [lo, hi] starts at [0, 1].  Each step evaluates mu at one
    p strictly inside it and moves lo (mu < alpha) or hi (mu >= alpha) to
    p, so the crossing never leaves it; the search stops once the bracket
    is no wider than ``tol`` (finite, >= 1e-14) and returns its midpoint,
    which is within tol/2 of the true crossing: the level error is at most
    tol/2 times the local slope plus the evaluation error.  Only the choice
    of p is Newton's (see ``_next_point``), so the answer carries the
    guarantee of bisection in 2 to 10 evaluations on most curves.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise EvaluationError(f"level must lie strictly inside (0, 1), got {alpha!r}")
    if not 1e-14 <= tol < math.inf:
        raise EvaluationError(f"tolerance must be finite and >= 1e-14, got {tol!r}")
    lo, hi = 0.0, 1.0  # mu(0) = 0 < alpha < 1 = mu(1) for nontrivial structures
    p = min(max(_start(expr, alpha), 0.25 * tol), 1.0 - 0.25 * tol)
    last = math.inf  # length of the Newton step (or bisection) that led to p
    while True:
        mu = availability(expr, p).value
        if mu < alpha:
            lo = p
        else:
            hi = p
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        p, last = _next_point(expr, alpha, p, mu, lo, hi, tol, last)


def _next_point(expr, alpha, p, mu, lo, hi, tol, last):
    """Next evaluation point, strictly inside (lo, hi), and its Newton step.

    p is the end of the bracket just moved, mu its value, and ``last`` the
    length of the previous Newton step (or bisection).  The Newton point is
    taken when its step is under half the last one and it lies inside the
    bracket; a step under tol/2 is first carried tol/2 further, toward the
    crossing, so that the next evaluation lands on the far side of the
    crossing and closes the bracket instead of creeping up on it from one
    side.  Otherwise the bracket is bisected.  Returns the point and the
    step to record as the next ``last``.
    """
    target = _newton_point(expr, alpha, p, mu)
    if target is not None and abs(target - p) < 0.5 * last:
        step = abs(target - p)
        if step < 0.5 * tol:
            target += 0.5 * tol if mu < alpha else -0.5 * tol
        if lo < target < hi:
            return target, step
    target = _bisection_point(lo, hi, tol)
    return target, abs(target - p)


def _newton_point(expr, alpha, p, mu):
    """Root of the tangent of logit mu against logit p, or None without one.

    The slope d logit mu / d logit p = mu' p (1-p) / (mu (1-mu)) varies
    slowly in both tails, where mu behaves like a power of p or of 1-p.
    """
    if not 0.0 < mu < 1.0:
        return None
    slope = derivative(expr, p) * p * (1.0 - p) / (mu * (1.0 - mu))
    if not 0.0 < slope < math.inf:
        return None
    return _expit(_logit(p) + (_logit(alpha) - _logit(mu)) / slope)


def _logit(x: float) -> float:
    return math.log(x / (1.0 - x))


def _expit(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _bisection_point(lo, hi, tol):
    """A point splitting (lo, hi): geometric in a tail, arithmetic elsewhere.

    Below 1/2 with hi > 4 lo the split is sqrt(lo hi), and above 1/2 the
    same in 1 - p, so a crossing near 0 or 1 costs a few halvings of its
    logarithm, not 40 halvings of the width.  An end at 0 (or 1) counts as
    tol/4 away, which keeps the point strictly inside the bracket.
    """
    floor = 0.25 * tol
    if hi <= 0.5 and hi > 4.0 * lo:
        return math.sqrt(max(lo, floor) * hi)
    if lo >= 0.5 and 1.0 - lo > 4.0 * (1.0 - hi):
        return 1.0 - math.sqrt(max(1.0 - hi, floor) * (1.0 - lo))
    return 0.5 * (lo + hi)


def _start(expr: StructureExpr, alpha: float) -> float:
    """Approximate crossing point, inverting stage by stage, outermost first.

    mu_p(A x B) = mu_{mu_p(A)}(B), so the outer stage is inverted at alpha
    and each inner stage at the level the previous inversion returned.
    """
    stages = expr.stages if isinstance(expr, Product) else (expr,)
    level = alpha
    for stage in reversed(stages):
        level = _stage_start(stage, level)
    return level


def _stage_start(stage: StructureExpr, beta: float) -> float:
    """Approximate p with mu_p(stage) = beta, without evaluating the stage.

    Series and parallel invert exactly; another k-out-of-n takes the normal
    approximation with continuity correction, k - 1/2 - n p = z sqrt(n p q)
    with z the upper beta quantile, whose root on the matching side of
    (k - 1/2) / n solves a quadratic in p.  Runs and explicit sets start
    at 1/2.
    """
    if not isinstance(stage, KOutOfN):
        return 0.5
    if not 0.0 < beta < 1.0:
        return beta
    k, n = stage.k, stage.n
    if k == 1:
        return -math.expm1(math.log1p(-beta) / n)
    if k == n:
        return math.exp(math.log(beta) / n)
    c, z = k - 0.5, -_NORMAL.inv_cdf(beta)
    z2 = z * z
    upper = (2.0 * c + z2 + abs(z) * math.sqrt(4.0 * c * (n - c) / n + z2)) / (2.0 * (n + z2))
    if z < 0.0:
        return upper
    # the smaller root from the product of the roots, c^2 / (n (n + z^2))
    return c * c / (n * (n + z2) * upper)


def width(expr: StructureExpr, epsilon: float, tol: float = 1e-12) -> ThresholdReport:
    """Threshold report at level epsilon in (0, 1/2]."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 0.5:
        raise EvaluationError(f"level must lie in (0, 1/2], got {epsilon!r}")
    if 1.0 - epsilon == 1.0:
        raise EvaluationError(
            f"epsilon = {epsilon!r} is too small: 1 - epsilon rounds to 1 in doubles"
        )
    p_lo = locate(expr, epsilon, tol)
    p_hi = locate(expr, 1.0 - epsilon, tol) if epsilon < 0.5 else p_lo
    p_half = locate(expr, 0.5, tol)
    w = max(0.0, p_hi - p_lo)
    return ThresholdReport(
        epsilon=epsilon,
        p_lo=p_lo,
        p_hi=p_hi,
        width=w,
        p_half=p_half,
        sharpness_ratio=w / (p_half * (1.0 - p_half)),
        tol=tol,
    )


def hoeffding_width_bound(n: int, epsilon: float) -> float:
    """Upper bound 2 sqrt(ln(1/eps) / (2n)) on the majority threshold width."""
    if n < 1:
        raise EvaluationError(f"need n >= 1, got {n}")
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 0.5:
        raise EvaluationError(f"level must lie in (0, 1/2), got {epsilon!r}")
    return 2.0 * math.sqrt(math.log(1.0 / epsilon) / (2.0 * n))


def _xlog1overx(x: float) -> float:
    """x * ln(1/x), continued by 0 at x = 0."""
    return -x * math.log(x) if x > 0.0 else 0.0


def check_entropy_inequalities(expr: StructureExpr, p: float):
    """Both entropy-tensorization lower bounds on the slope, as BoundChecks.

    entropy_lower:  p ln(1/p) mu' >= mu ln(1/mu)
    entropy_upper:  (1-p) ln(1/(1-p)) mu' >= (1-mu) ln(1/(1-mu))

    Every monotone structure satisfies both at every interior p.
    """
    mu = availability(expr, p).value
    dmu = derivative(expr, p)
    lower = _make_check(
        "entropy_lower", p, _xlog1overx(p) * dmu, _xlog1overx(mu), orient_ge=True
    )
    upper = _make_check(
        "entropy_upper", p, _xlog1overx(1.0 - p) * dmu, _xlog1overx(1.0 - mu), orient_ge=True
    )
    return lower, upper


def check_cauchy_schwarz_bound(expr: StructureExpr, p: float) -> BoundCheck:
    """Slope cap mu' <= sqrt(mu (1-mu)) sqrt(n / (p (1-p))).

    Follows from writing the slope as a covariance with the failure count
    and applying Cauchy-Schwarz, so it binds every structure.
    """
    mu = availability(expr, p).value
    dmu = derivative(expr, p)
    rhs = math.sqrt(max(0.0, mu * (1.0 - mu)) * expr.n / (p * (1.0 - p)))
    return _make_check("cauchy_schwarz", p, dmu, rhs, orient_ge=False)


def gaussian_isoperimetric(u: float) -> float:
    """Standard normal density at the standard normal quantile of u."""
    if not 0.0 < u < 1.0:
        raise EvaluationError(f"isoperimetric profile needs u in (0, 1), got {u!r}")
    return _NORMAL.pdf(_NORMAL.inv_cdf(u))


def check_isoperimetric_bound(n: int, p: float) -> BoundCheck:
    """Isoperimetric slope floor for the majority family KOutOfN(n//2, n).

    Checks mu' >= sqrt(n) / (p sqrt(ln(1/p))) * Psi(mu) with Psi the
    Gaussian isoperimetric profile.  The bound is asymptotic in nature;
    at accessible n the recorded slack is itself an experimental output
    and does go negative (see the acceptance suite's slack tables).
    """
    if n < 2:
        raise EvaluationError(f"majority family needs n >= 2, got {n}")
    expr = majority(n)
    mu = availability(expr, p).value
    dmu = derivative(expr, p)
    rhs = math.sqrt(n) / (p * math.sqrt(math.log(1.0 / p))) * gaussian_isoperimetric(mu)
    return _make_check("isoperimetric", p, dmu, rhs, orient_ge=True)


def homogeneity_scan(
    family: Callable[[int], StructureExpr],
    sizes: Sequence[int],
    beta: float,
    gamma: float,
    scale: Callable[[int], float],
    tol: float = 1e-12,
) -> list:
    """Normalized level-to-level gaps (p(gamma) - p(beta)) scale(n) / (gamma - beta).

    For a family whose width is homogeneous of order 1/scale(n) the column
    stays bounded above and away from 0 across sizes.
    """
    if not 0.0 < beta < gamma < 1.0:
        raise EvaluationError(f"need 0 < beta < gamma < 1, got {beta!r}, {gamma!r}")
    rows = []
    for n in sizes:
        expr = family(n)
        gap = locate(expr, gamma, tol) - locate(expr, beta, tol)
        rows.append((n, gap * scale(n) / (gamma - beta)))
    return rows


def sharpness_trend(
    family: Callable[[int], StructureExpr],
    sizes: Sequence[int],
    epsilon: float,
    tol: float = 1e-12,
) -> list:
    """Per-size (n, sharpness_ratio, p_half (1-p_half) mu'(p_half)) rows.

    A ratio column decreasing to 0 marks a sharp threshold; staying
    bounded below marks a coarse one.  The third column is the matching
    slope statistic: it diverges exactly for sharp families.
    """
    if list(sizes) != sorted(sizes):
        raise EvaluationError("sizes must be increasing")
    rows = []
    for n in sizes:
        expr = family(n)
        report = width(expr, epsilon, tol)
        ph = report.p_half
        stat = ph * (1.0 - ph) * derivative(expr, ph)
        rows.append((n, report.sharpness_ratio, stat))
    return rows

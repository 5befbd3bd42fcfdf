"""Threshold location, width, sharpness, and inequality checks.

For a nontrivial monotone structure the failure probability p -> mu_p is
strictly increasing from 0 to 1, so every level alpha has a unique
crossing point p(alpha).  ``locate`` inverts the curve by bisection (the
only method that survives both razor-sharp and nearly flat curves),
``width`` packages the transition interval p(1-eps) - p(eps), and the
``check_*`` functions evaluate the curve inequalities every monotone
structure must (or, for the Gaussian isoperimetric one, asymptotically
should) satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

from .exact_eval import EvaluationError, availability, derivative
from .structures import StructureExpr, majority

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
    ``tol`` is the bisection bracket width on p; the induced level error is
    tol times the local slope plus the evaluation error bound.
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
    """The unique p with mu_p(expr) = alpha, by bisection on [0, 1].

    Stops once the bracket is narrower than ``tol`` (finite, >= 1e-14),
    which halving a dyadic bracket reaches within 47 steps; the returned
    midpoint is within tol/2 of the true crossing, so the level error is at
    most tol/2 times the local slope plus the evaluation error.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise EvaluationError(f"level must lie strictly inside (0, 1), got {alpha!r}")
    if not 1e-14 <= tol < math.inf:
        raise EvaluationError(f"tolerance must be finite and >= 1e-14, got {tol!r}")
    lo, hi = 0.0, 1.0  # mu(0) = 0 < alpha < 1 = mu(1) for nontrivial structures
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if availability(expr, mid).value < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def width(expr: StructureExpr, epsilon: float, tol: float = 1e-12) -> ThresholdReport:
    """Threshold report at level epsilon in (0, 1/2]."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 0.5:
        raise EvaluationError(f"level must lie in (0, 1/2], got {epsilon!r}")
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

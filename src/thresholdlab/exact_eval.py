"""Exact (non-sampling) evaluation of the failure probability curve.

For a structure A and component failure probability p, ``availability``
returns mu_p(A) = P(configuration in A) and ``derivative`` its slope
d mu_p / dp.  Both read one fold over the stage chain, a non-product
being a chain of one stage.  Each stage costs one call of its variant's
kernel, which gives the value with its own error bound and method, and
the slope when asked:

* k-out-of-n        -- binomial upper tail (stable log-domain summation),
                       with series/parallel closed forms via expm1/log1p;
* consecutive runs  -- one power of the trailing-run transfer matrix,
                       O(k^3 log n); the slope rides along as the dual
                       block of [[M, dM/dp], [0, M]];
* explicit sets     -- the reliability polynomial, counted by brute force.

A product composes as mu_p(A x B) = mu_{mu_p(A)}(B), with slope
mu'_B(mu_p(A)) mu'_p(A).  ``influences`` gives the per-coordinate
pivotality probabilities whose sum is the slope.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, singledispatch

import numpy as np

from . import _binom
from .structures import (
    MAX_ENUM_BITS,
    Consecutive,
    Explicit,
    KOutOfN,
    Product,
    StructureError,
    StructureExpr,
    truth_table,
)

_EPS = sys.float_info.epsilon
_LN2 = math.log(2.0)

METHODS = ("closed_form", "binomial_tail", "dp", "brute_force", "composed")

# Longest run the transfer matrix takes: its (2k+2)^2 derivative block stays
# a few megabytes, and one power a fraction of a second.
MAX_RUN_LENGTH = 256


class EvaluationError(ValueError):
    """Arguments outside an operation's domain."""


@dataclass(frozen=True)
class EvalResult:
    """A probability value plus how it was obtained and how wrong it can be."""

    value: float
    method: str
    abs_error_bound: float

    def __post_init__(self):
        if self.method not in METHODS:
            raise EvaluationError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class ReliabilityPolynomial:
    """Member counts by failure weight: counts[i] configurations with i ones.

    mu_p = sum_i counts[i] p^i (1-p)^(n-i).  Counts are exact integers; the
    evaluation goes through the log domain so huge binomials stay finite.
    """

    n: int
    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != self.n + 1:
            raise EvaluationError(f"need n+1 = {self.n + 1} counts, got {len(counts)}")
        for i, c in enumerate(counts):
            if not 0 <= c <= math.comb(self.n, i):
                raise EvaluationError(f"count {c} at weight {i} exceeds C({self.n},{i})")

    def _terms(self, p: float):
        lp = math.log(p) if p > 0.0 else -math.inf
        lq = math.log1p(-p) if p < 1.0 else -math.inf
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            logt = math.log(c) + i * lp + (self.n - i) * lq
            yield i, (math.exp(logt) if logt > -745 else 0.0)

    def evaluate(self, p: float) -> float:
        p = _check_prob(p)
        if p == 0.0:
            return float(self.counts[0])
        if p == 1.0:
            return float(bool(self.counts[self.n]))
        return min(1.0, math.fsum(t for _, t in self._terms(p)))

    def derivative_at(self, p: float) -> float:
        p = _check_prob(p)
        if not 0.0 < p < 1.0:
            raise EvaluationError("polynomial derivative needs 0 < p < 1")
        return math.fsum(
            t * (i / p - (self.n - i) / (1.0 - p)) for i, t in self._terms(p)
        )


def _check_prob(p) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0 or math.isnan(p):
        raise EvaluationError(f"probability must lie in [0, 1], got {p!r}")
    return p


def _closed_form_bound(mu: float, log_work: float) -> float:
    # expm1/log1p pipelines keep the error relative to min(mu, 1-mu)
    return max((abs(log_work) + 4.0) * _EPS * min(mu, 1.0 - mu), 1e-18)


# -- one kernel per variant, one fold over the stage chain -----------------


def availability(expr: StructureExpr, p) -> EvalResult:
    """Exact failure probability mu_p(expr) with method and error metadata."""
    mu, bound, method, _ = _fold(expr, _check_prob(p), False)
    return EvalResult(mu, method, bound)


def derivative(expr: StructureExpr, p) -> float:
    """Exact d mu_p(expr) / dp for p strictly inside (0, 1)."""
    return _fold(expr, _check_interior(p), True)[3]


def _check_interior(p) -> float:
    p = _check_prob(p)
    if p in (0.0, 1.0):
        raise EvaluationError("derivative is only defined for 0 < p < 1 here")
    return p


def _fold(expr: StructureExpr, p: float, deriv: bool):
    """(mu, error bound, method, d mu/dp if ``deriv``), folded over the stages.

    A non-product is a chain of one stage.  Each stage maps its input q to
    mu_q(stage), as mu_p(A x B) = mu_{mu_p(A)}(B); its bound is its own plus
    the incoming bound times |d mu_q(stage)/dq|, and the slope takes the
    same factor.  An input of 0 or 1 is fixed by every later stage, so
    their slopes count as zero.  Each stage costs one kernel call, which is
    asked for a slope only where one multiplies something nonzero, and for
    a value everywhere but at the last stage of a derivative.
    """
    stages = expr.stages if isinstance(expr, Product) else (expr,)
    last = len(stages) - 1
    mu, bound, slope = p, 0.0, float(deriv)
    for i, stage in enumerate(stages):
        want_slope = 0.0 < mu < 1.0 and (bound or slope) != 0.0
        mu, own, method, d = _kernel(stage, mu, not deriv or i < last, want_slope)
        bound, slope = own + bound * abs(d), slope * d
    return mu, bound, method if last == 0 else "composed", slope


@singledispatch
def _kernel(expr: StructureExpr, p: float, value: bool, slope: bool):
    """(mu, own error bound, method, d mu/dp) of one non-product stage at p.

    The value is computed when ``value`` is set and the slope when ``slope``
    is (only for 0 < p < 1); a part not asked for reads nan, 0.0 or None.
    """
    raise TypeError(f"no exact evaluation for {type(expr).__name__}")


@_kernel.register
def _(expr: KOutOfN, p, value, slope):
    k, n = expr.k, expr.n
    # d/dp P(Bin(n,p) >= k) = n * P(Bin(n-1,p) = k-1)
    d = n * _binom.pmf(n - 1, k - 1, p) if slope else 0.0
    if not value:
        return math.nan, 0.0, None, d
    if p in (0.0, 1.0) or k == n == 1:
        return p, 0.0, "closed_form", d
    if k == 1:
        work = n * math.log1p(-p)
        mu = -math.expm1(work)
        return mu, _closed_form_bound(mu, work), "closed_form", d
    if k == n:
        work = n * math.log(p)
        mu = math.exp(work)
        return mu, _closed_form_bound(mu, work), "closed_form", d
    return _binom.upper_tail(n, k, p), _binom.error_bound(n, p), "binomial_tail", d


@_kernel.register
def _(expr: Consecutive, p, value, slope):
    # one power gives the value with the slope; mu never falls as p grows,
    # so the clamp drops rounding noise near p = 1
    if p in (0.0, 1.0):
        return p, 0.0, "dp", 0.0
    mu, d = _consecutive_eval(expr, p, slope)
    mu = min(1.0, mu)
    return mu, _consecutive_bound(expr, mu), "dp", max(0.0, d)


def _consecutive_bound(expr: Consecutive, mu: float) -> float:
    """Error bound of the matrix-power mu, relative to mu.

    With u = eps/2, call X^ within e of a nonnegative X when exp(-e) X <=
    X^ <= exp(e) X entrywise.  M's entries p, 1, 0 are exact and fl(1-p) is
    within u.  A product of nonnegative matrices sums <= k+1 nonnegative
    terms, so it is within e_A + e_B + (k+1) u: squaring doubles the error
    it is given, and binary powering yields M^n within n u + (n-1)(k+1) u.
    The circular start weights (4 u), k-1 Horner steps ((k+3) u each), the
    last row product and the sum with p^k bring both topologies to at most
    n (k+2) u + 2 u <= (n+1)(k+3) u = e.  The factor n is real: a relative
    error in 1-p moves a path weight by its count of 1-p factors, up to n,
    and each squaring passes earlier rounding on to every later power.
    So |mu^ - mu| <= expm1(2e) mu^.  Underflow adds <= 2^-1075 per rounding,
    carried over <= k+1 terms per entry: below 2e (k+3) float_min in all.
    """
    growth = (expr.n + 1) * (expr.k + 3) * _EPS
    return min(1.0, math.expm1(growth) * mu + growth * (expr.k + 3) * sys.float_info.min)


@_kernel.register
def _(expr: Explicit, p, value, slope):
    poly = _cached_polynomial(expr)
    d = poly.derivative_at(p) if slope else 0.0
    if not value:
        return math.nan, 0.0, None, d
    return poly.evaluate(p), max(1e-15, 4.0 * _EPS * expr.n), "brute_force", d


# -- influences ------------------------------------------------------------


def influences(expr: StructureExpr, p) -> list:
    """Pivotality probability of each coordinate; sums to the derivative.

    Coordinate i is pivotal when flipping it from 0 to 1 moves the
    configuration into the failure set.  Brute force over the truth table,
    so the ground size is capped at MAX_ENUM_BITS.
    """
    p = _check_interior(p)
    n = expr.n
    if n > MAX_ENUM_BITS:
        raise StructureError(f"influences need n <= {MAX_ENUM_BITS}, got {n}")
    t = truth_table(expr)
    idx = np.arange(t.size, dtype=np.int64)
    pop = np.bitwise_count(idx).astype(np.int64)
    # pow tables over the weight of the *other* n-1 coordinates
    pw = [p**w * (1.0 - p) ** (n - 1 - w) for w in range(n)]
    out = []
    for i in range(n):
        lower = idx[(idx >> i) & 1 == 0]
        pivotal = t[lower | (1 << i)] & ~t[lower]
        weights = pop[lower[pivotal]]
        cnt = np.bincount(weights, minlength=n)
        out.append(math.fsum(int(c) * pw[w] for w, c in enumerate(cnt) if c))
    return out


# -- reliability polynomial ------------------------------------------------


def reliability_polynomial(expr: StructureExpr) -> ReliabilityPolynomial:
    """Exact member counts by weight.

    Closed form for k-out-of-n at any size (cost grows with the digits of
    C(n, i)); brute force over the truth table otherwise, capped at
    MAX_ENUM_BITS coordinates.
    """
    if isinstance(expr, KOutOfN):
        counts = tuple(
            math.comb(expr.n, i) if i >= expr.k else 0 for i in range(expr.n + 1)
        )
        return ReliabilityPolynomial(expr.n, counts)
    if expr.n > MAX_ENUM_BITS:
        raise StructureError(
            f"reliability polynomial needs n <= {MAX_ENUM_BITS} "
            f"for {type(expr).__name__}, got {expr.n}"
        )
    t = truth_table(expr)
    pop = np.bitwise_count(np.arange(t.size, dtype=np.int64))
    counts = np.bincount(pop[t], minlength=expr.n + 1)
    return ReliabilityPolynomial(expr.n, tuple(int(c) for c in counts))


@lru_cache(maxsize=256)
def _cached_polynomial(expr: Explicit) -> ReliabilityPolynomial:
    return reliability_polynomial(expr)


# -- consecutive runs by transfer-matrix powers ----------------------------


@lru_cache(maxsize=64)
def _run_templates(k: int, dual: bool):
    """(A, D) with the run chain's step matrix M = A + p D, so D = dM/dp.

    States 0..k-1 are the trailing failure-run length; state k (run k
    reached) absorbs.  A working unit sends s < k to 0, a failed one to
    s + 1.  With ``dual`` the pair builds the block [[M, D], [0, M]], whose
    powers carry d(M^n)/dp in the upper-right block.
    """
    m = k + 1
    a, d = np.zeros((2, m, m))
    a[:k, 0] = 1.0
    a[k, k] = 1.0
    d[:k, 0] = -1.0
    d[np.arange(k), np.arange(1, m)] = 1.0
    if dual:
        o = np.zeros((m, m))
        a, d = np.block([[a, d], [o, a]]), np.block([[d, o], [o, d]])
    return a, d


def _consecutive_eval(expr: Consecutive, p: float, want_deriv: bool):
    """(mu, dmu/dp) from one matrix power of the run chain (Fu & Koutras 1994).

    Linear: mu is the absorbing entry of row 0 of M^n.  Circular: either the
    last k units fail (p^k), or w < k trailing failures follow a working
    unit, which cuts the cycle into a chain of n-1-w steps from state w.
    Horner steps through M fold the start weights p^w q into one row u, so
    mu = p^k + (u M^(n-k))[k].  All terms are nonnegative, so mu keeps its
    relative accuracy however small it is.
    """
    k, n = expr.k, expr.n
    if k > MAX_RUN_LENGTH:
        raise EvaluationError(f"consecutive runs need k <= {MAX_RUN_LENGTH}, got {k}")
    if (n + 1) * (k + 3) * _EPS >= _LN2:
        # the relative bound factor expm1((n+1)(k+3) eps) of mu reaches 1
        raise EvaluationError(
            f"consecutive runs need (n+1)(k+3) < ln 2 / eps = {_LN2 / _EPS:.3g}, "
            f"got n = {n}, k = {k}"
        )
    a, d = _run_templates(k, want_deriv)
    step = a + p * d
    m = k + 1
    if expr.topology == "linear":
        row = np.linalg.matrix_power(step, n)[0]
        wrap = dwrap = 0.0
    else:
        q = 1.0 - p
        u = np.zeros(len(a))
        for w in range(k):
            if w:
                u = u @ step
            pw = p**w
            u[w] += pw * q
            if want_deriv:
                u[m + w] += (w * p ** (w - 1) * q if w else 0.0) - pw
        row = u @ np.linalg.matrix_power(step, n - k)
        wrap, dwrap = p**k, k * p ** (k - 1)
    mu = float(row[k]) + wrap
    dmu = float(row[m + k]) + dwrap if want_deriv else 0.0
    return mu, dmu

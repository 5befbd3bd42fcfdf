"""Binomial probabilities in doubles: P(Bin(n, p) = i) and P(Bin(n, p) >= k).

Terms follow C. Loader, *Fast and Accurate Computation of Binomial
Probabilities* (2000):

    C(n, i) p^i q^(n-i) = exp(stirlerr(n) - stirlerr(i) - stirlerr(n-i)
                              - bd0(i, n p) - bd0(n-i, n q)) / sqrt(2 pi i (n-i) / n)

with q = 1 - p, stirlerr(m) = log m! - log(sqrt(2 pi m) (m/e)^m) (a table
for m <= 15, its asymptotic series above) and the deviance
bd0(x, M) = x log(x/M) + M - x.  Near the mode every piece of the exponent
is O(1), so lgamma's n log n sized absolute error never enters.  bd0 is
summed as a series in d = x - M when |d| < 0.1 (x + M).  That series is
only as good as d, so d = i - n p is computed exactly from the integer
ratio of p and rounded once; the other side's deviation is -d, against
n q = n - n p formed the same way.  Rounding n p first would cost about
sigma * eps relative.  The prefactor's i (n-i) / n is one correctly
rounded integer division, with none of the loss of log1p(-i/n) near p = 1.
The term at the mode is within ~1e-14 relative of the exact value for n up
to 1e7 and p in [1e-9, 1 - 1e-9].

``upper_tail`` sums whichever side of the split (the upper tail, or its
complement when k <= n p) avoids cancellation.  It starts at the side's
largest term and walks outward with the exact term ratios
(n-i)/(i+1) * p/q going up and i/(n-i+1) / (p/q) going down.  The ratios
are built in numpy and multiplied out with ``np.cumprod`` in chunks of
about 11 sigma, with the peak term folded into the first ratio.  These
are the products of a scalar loop, in the same order, so the terms are
bit for bit those of ``t *= ratio``.  The walk stops at the first term
below peak * 1e-22, and never goes below the smallest normal double: a
subnormal cutoff would let terms that round to themselves run for O(n)
steps.  The kept terms are added exactly by ``math.fsum``.

Absolute error stays below ``error_bound(n, p)``, 7.3e-13 at n = 1e7, p = 1/2.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_TERM_CUTOFF = 1e-22  # drop terms below peak * cutoff; truncated mass ~1e-18
_WALK_FLOOR = sys.float_info.min  # smallest normal double
_TWO_PI = 2.0 * math.pi

# stirlerr(m) for m = 0..15, from 50-digit lgamma; entry 0 is never read.
_STIRLERR = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(m: int) -> float:
    """log m! - log(sqrt(2 pi m) (m/e)^m), to ~1e-16 absolute."""
    if m <= 15:
        return _STIRLERR[m]
    x = float(m)
    xx = x * x
    if m > 500:
        return (_S0 - _S1 / xx) / x
    if m > 80:
        return (_S0 - (_S1 - _S2 / xx) / xx) / x
    if m > 35:
        return (_S0 - (_S1 - (_S2 - _S3 / xx) / xx) / xx) / x
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / xx) / xx) / xx) / xx) / x


def _bd0(x: float, m: float, d: float) -> float:
    """x log(x/m) + m - x, given the deviation d = x - m to full precision."""
    if abs(d) < 0.1 * (x + m):
        v = d / (x + m)
        s = d * v
        ej = 2.0 * x * v
        v *= v
        j = 3
        while True:
            ej *= v
            s1 = s + ej / j
            if s1 == s:
                return s
            s = s1
            j += 2
    return x * math.log(x / m) + m - x


def _term(n: int, i: int, p: float) -> float:
    """C(n, i) p^i (1-p)^(n-i) for 0 <= i <= n and 0 < p < 1, to a few ulps."""
    if i == 0:
        return math.exp(n * math.log1p(-p))
    if i == n:
        return math.exp(n * math.log(p))
    num, den = float(p).as_integer_ratio()  # p = num / den exactly
    d = (i * den - n * num) / den  # i - n p, rounded once
    lc = (
        _stirlerr(n)
        - _stirlerr(i)
        - _stirlerr(n - i)
        - _bd0(i, n * num / den, d)
        - _bd0(n - i, n * (den - num) / den, -d)
    )
    return math.exp(lc) / math.sqrt(_TWO_PI * (i * (n - i) / n))


def pmf(n: int, i: int, p: float) -> float:
    """P(Bin(n, p) = i)."""
    if not 0 <= i <= n:
        return 0.0
    if p <= 0.0:
        return 1.0 if i == 0 else 0.0
    if p >= 1.0:
        return 1.0 if i == n else 0.0
    return _term(n, i, p)


def _walk(n: int, start: int, stop: int, p: float, t: float, cutoff: float, chunk: int) -> list:
    """The terms after t = t_start on the way to stop, while they stay >= cutoff.

    Goes up when stop > start and down otherwise.  Each term is the
    previous one times the exact ratio: the products of a scalar loop, in
    the same order.
    """
    odds = p / (1.0 - p)
    step = 1 if stop > start else -1
    out = []
    while start != stop:
        end = start + step * min(chunk, abs(stop - start))
        i = np.arange(start, end, step, dtype=np.int64)
        if step == 1:
            ratio = (n - i) / (i + 1.0) * odds
        else:
            ratio = i / (n - i + 1.0) / odds
        ratio[0] *= t
        terms = np.cumprod(ratio)
        below = np.flatnonzero(terms < cutoff)
        if below.size:
            out.extend(terms[: below[0]].tolist())
            break
        out.extend(terms.tolist())
        t = out[-1]
        start = end
    return out


def _side_sum(n: int, lo: int, hi: int, p: float) -> float:
    """Sum of binomial terms for i in [lo, hi], walked out from the largest."""
    mode = int(math.floor((n + 1) * p))
    peak = min(max(mode, lo), hi)
    t_peak = _term(n, peak, p)
    if t_peak == 0.0:
        return 0.0
    cutoff = max(t_peak * _TERM_CUTOFF, _WALK_FLOOR)
    # terms fall below peak * 1e-22 about 10 sigma out: one chunk, as a rule
    chunk = 16 + int(11.0 * math.sqrt(n * p * (1.0 - p)))
    terms = [t_peak]
    terms += _walk(n, peak, hi, p, t_peak, cutoff, chunk)
    terms += _walk(n, peak, lo, p, t_peak, cutoff, chunk)
    return math.fsum(terms)


def upper_tail(n: int, k: int, p: float) -> float:
    """P(Bin(n, p) >= k) with absolute error below error_bound(n, p)."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    if k <= n * p:
        return max(0.0, 1.0 - _side_sum(n, 0, k - 1, p))
    return min(1.0, _side_sum(n, k, n, p))


def error_bound(n: int, p: float) -> float:
    """Conservative absolute error bound for upper_tail at these arguments."""
    sigma = math.sqrt(n * p * (1.0 - p))
    return max(1e-15, 2.0 * 2.3e-16 * (8.0 + sigma))

"""Stable binomial tail vs scipy and exact rational/high-precision oracles."""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from scipy.stats import binom

from thresholdlab import _binom
from thresholdlab._binom import error_bound, pmf, upper_tail


def fraction_tail(n, k, p):
    """Exact rational tail at the exact binary value of the float p."""
    fp = Fraction(p)
    q = 1 - fp
    if k <= n * p:
        return 1 - sum(math.comb(n, i) * fp**i * q ** (n - i) for i in range(k))
    return sum(math.comb(n, i) * fp**i * q ** (n - i) for i in range(k, n + 1))


def mp_term(n, i, p):
    """C(n, i) p^i (1-p)^(n-i) at 60 digits."""
    with mpmath.workdps(60):
        fp = mpmath.mpf(p)
        return float(
            mpmath.binomial(n, i) * fp**i * (1 - fp) ** (n - i)
        )


def loop_side_sum(n, lo, hi, p):
    """Scalar form of the tail walk: one ratio at a time from the peak term."""
    peak = min(max(int(math.floor((n + 1) * p)), lo), hi)
    t_peak = _binom._term(n, peak, p)
    if t_peak == 0.0:
        return 0.0
    cutoff = max(t_peak * 1e-22, sys.float_info.min)
    odds = p / (1.0 - p)
    terms = [t_peak]
    t = t_peak
    for i in range(peak, hi):
        t *= (n - i) / (i + 1.0) * odds
        if t < cutoff:
            break
        terms.append(t)
    t = t_peak
    for i in range(peak, lo, -1):
        t *= i / (n - i + 1.0) / odds
        if t < cutoff:
            break
        terms.append(t)
    return math.fsum(terms)


def mp_tail(n, k, p):
    """60-digit term summation of the minority side."""
    with mpmath.workdps(60):
        fp = mpmath.mpf(p)

        def term(i):
            return mpmath.e ** (
                mpmath.loggamma(n + 1)
                - mpmath.loggamma(i + 1)
                - mpmath.loggamma(n - i + 1)
                + i * mpmath.log(fp)
                + (n - i) * mpmath.log1p(-fp)
            )

        lo, hi = (0, k - 1) if k <= n * p else (k, n)
        peak = min(max(int((n + 1) * p), lo), hi)
        total = mpmath.mpf(0)
        t_peak = term(peak)
        for step in (1, -1):
            i = peak if step == 1 else peak - 1
            while lo <= i <= hi:
                t = term(i)
                total += t
                if t < t_peak * mpmath.mpf(1e-45):
                    break
                i += step
        return float(1 - total) if k <= n * p else float(total)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 101])
def test_tail_exact_small(n):
    for k in range(1, n + 1):
        for p in (1e-9, 0.01, 0.2, 0.5, 0.83, 0.999):
            got = upper_tail(n, k, p)
            want = float(fraction_tail(n, k, p))
            assert abs(got - want) <= error_bound(n, p)
            assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n", [1001, 6401, 10**5, 10**6])
def test_tail_large(n):
    for kfrac in (0.4, 0.5, 0.5001, 0.7):
        k = max(1, int(n * kfrac))
        for p in (0.2, 0.5, 0.52, 0.9):
            got = upper_tail(n, k, p)
            want = mp_tail(n, k, p)
            assert abs(got - want) <= error_bound(n, p)
            assert abs(got - want) <= 1e-12


def test_tail_vs_scipy_grid():
    for n in (9, 55, 333, 2048):
        for k in (1, n // 3, n // 2, n):
            for p in (0.05, 0.35, 0.5, 0.65, 0.95):
                got = upper_tail(n, k, p)
                want = binom.sf(k - 1, n, p)
                assert got == pytest.approx(want, abs=5e-13)


def test_tail_edges():
    assert upper_tail(10, 0, 0.3) == 1.0
    assert upper_tail(10, 11, 0.3) == 0.0
    assert upper_tail(10, 4, 0.0) == 0.0
    assert upper_tail(10, 4, 1.0) == 1.0


def test_pmf_values():
    assert pmf(3, 2, 0.5) == pytest.approx(0.375, abs=1e-15)
    assert pmf(0, 0, 0.4) == pytest.approx(1.0, abs=1e-15)
    assert pmf(5, 6, 0.4) == 0.0
    for n, i, p in ((60, 17, 0.3), (1001, 500, 0.5)):
        want = float(Fraction(math.comb(n, i)) * Fraction(p) ** i * (1 - Fraction(p)) ** (n - i))
        assert pmf(n, i, p) == pytest.approx(want, rel=1e-14)


PEAK_NS = (1, 2, 5, 15, 16, 35, 36, 80, 81, 500, 501, 4321, 10**5, 10**6, 10**7)
PEAK_PS = (1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.77, 0.999, 1 - 1e-6, 1 - 1e-9)


@pytest.mark.parametrize("n", PEAK_NS)
def test_peak_term_vs_mpmath(n):
    for p in PEAK_PS:
        mode = min(int(math.floor((n + 1) * p)), n)
        for i in {max(mode - 1, 0), mode, min(mode + 1, n)}:
            want = mp_term(n, i, p)
            assert pmf(n, i, p) == pytest.approx(want, rel=2e-14), (n, i, p)


def test_walk_matches_scalar_loop():
    # same peak term, same ratios in the same order: bit-identical sums
    for n in (3, 40, 999, 12345, 10**6):
        for p in (1e-7, 0.013, 0.3, 0.5, 0.91, 1 - 1e-7):
            for k in sorted({1, max(1, n // 7), n // 2 + 1, int(n * p) + 1, n}):
                if k <= n * p:
                    lo, hi = 0, k - 1
                else:
                    lo, hi = k, n
                assert _binom._side_sum(n, lo, hi, p) == loop_side_sum(n, lo, hi, p), (n, k, p)


def test_tail_with_subnormal_peak():
    # the peak term of this side is 3.6e-313: the walk cutoff is floored at
    # the smallest normal double instead of underflowing to 0
    n, k, p = 7327548, 949896, 0.125
    got = upper_tail(n, k, p)
    want = binom.sf(k - 1, n, p)
    assert 0.0 < got <= want
    assert abs(got - want) <= error_bound(n, p)
    assert got == loop_side_sum(n, k, n, p)

"""Threshold inversion, widths, and the curve inequalities."""

import math

import mpmath
import pytest
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import binom, norm

from thresholdlab import (
    Consecutive,
    EvaluationError,
    KOutOfN,
    WidthTarget,
    availability,
    build_arbitrary_width,
    check_cauchy_schwarz_bound,
    check_entropy_inequalities,
    check_isoperimetric_bound,
    derivative,
    gaussian_isoperimetric,
    hoeffding_width_bound,
    homogeneity_scan,
    locate,
    majority,
    parallel,
    parallel_series,
    product,
    series,
    sharpness_trend,
    width,
)
from thresholdlab import threshold
from thresholdlab.threshold import SLACK_TOL

from conftest import FIXTURES

FIXTURE_ID = lambda e: type(e).__name__ + str(e.n)
LEVELS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
CHECK_GRID = [round(0.05 * i, 2) for i in range(1, 20)]


# -- locate ---------------------------------------------------------------------

def test_locate_identity_structure():
    assert locate(KOutOfN(1, 1), 0.3, 1e-13) == pytest.approx(0.3, abs=1e-13)


def test_locate_product_closed_form():
    # invert 1 - (1 - p^2)^3 at 1/2: p = (1 - (1/2)^(1/3))^(1/2)
    want = (1.0 - 0.5 ** (1.0 / 3.0)) ** 0.5
    got = locate(product(parallel(2), series(3)), 0.5, 1e-13)
    assert got == pytest.approx(want, abs=1e-12)


def test_locate_odd_majority_symmetry():
    assert locate(KOutOfN(2, 3), 0.5, 1e-13) == pytest.approx(0.5, abs=1e-12)


def test_locate_validation():
    with pytest.raises(EvaluationError):
        locate(KOutOfN(1, 2), 0.0)
    with pytest.raises(EvaluationError):
        locate(KOutOfN(1, 2), 1.0)
    with pytest.raises(EvaluationError):
        locate(KOutOfN(1, 2), 0.5, tol=1e-15)


@pytest.mark.parametrize("expr", FIXTURES, ids=FIXTURE_ID)
def test_round_trip(expr):
    for alpha in LEVELS:
        p = locate(expr, alpha, 1e-13)
        assert abs(availability(expr, p).value - alpha) <= 1e-10


# Independent curves: scipy's binomial survival function and closed forms.
def _kofn_case(f, n):
    k = max(1, round(f * n))
    return pytest.param(KOutOfN(k, n), lambda p: float(binom.sf(k - 1, n, p)), id=f"kofn-{f}-{n}")


def _run_case(k, n):
    # Feller's alternating sums for no run of k among n units in a line,
    # with x = q p^k; 60 digits cover the cancellation at these levels
    def mu(p):
        with mpmath.workdps(60):
            p = mpmath.mpf(p)
            x = (1 - p) * p**k

            def s(m):
                return mpmath.fsum(
                    (-1) ** j * math.comb(m - j * k, j) * x**j for j in range(m // (k + 1) + 1)
                )

            return float(1 - (s(n) - p**k * s(n - k)))

    return pytest.param(Consecutive(k, n, "linear"), mu, id=f"consec-{k}-{n}-linear")


def _build_case(name):
    # majority(a) inside m in parallel inside r in series: 1 - (1 - B^m)^r
    record = build_arbitrary_width(WidthTarget.builtin(name), 2**20)
    a, m, r = record.a, record.m, record.r

    def mu(p):
        b = float(binom.sf(a // 2 - 1, a, p))
        return -math.expm1(r * math.log1p(-(b**m))) if b < 1.0 else 1.0

    return pytest.param(record.expr, mu, id=f"{name}-2^20")


ORACLE_CASES = [
    *(_kofn_case(f, n) for n in (101, 6401, 10**5, 10**7) for f in (0.03, 0.5, 0.97)),
    pytest.param(
        series(10**11),
        lambda p: 1.0 if p >= 1.0 else -math.expm1(10**11 * math.log1p(-p)),
        id="series-1e11",
    ),
    pytest.param(
        parallel(10**11),
        lambda p: 0.0 if p <= 0.0 else math.exp(10**11 * math.log(p)),
        id="parallel-1e11",
    ),
    *(_build_case(name) for name in ("ceil_log", "ceil_cuberoot", "ceil_sqrt")),
    # long runs, whose error bound (n+1)(k+3) eps mu is far above their
    # actual error: a stop on |mu - alpha| <= bound fails here
    *(_run_case(k, n) for k, n in ((5, 2000), (8, 3000), (20, 10**4))),
]


@pytest.mark.parametrize("tol", (1e-12, 1e-14))
@pytest.mark.parametrize("expr, mu", ORACLE_CASES)
def test_locate_brackets_the_oracle_crossing(expr, mu, tol):
    # the oracle's crossing lies within tol of the located point, and the
    # point keeps clear of 0 and 1 wherever the crossing does
    for alpha in (1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6):
        p = locate(expr, alpha, tol)
        assert mu(max(0.0, p - tol)) <= alpha + 1e-12, (alpha, p)
        assert mu(min(1.0, p + tol)) >= alpha - 1e-12, (alpha, p)
        if mu(2.0 * tol) < alpha < mu(1.0 - 2.0 * tol):
            assert tol < p < 1.0 - tol, (alpha, p)


@pytest.mark.parametrize("expr", (series(10**17), parallel(10**17)), ids=("series", "parallel"))
def test_width_with_crossings_past_the_tolerance_stays_inside(expr):
    # every crossing lies within 1e-17 of 0 or 1; the midpoint of the last
    # bracket must still not round onto an end
    report = width(expr, 0.25, 1e-14)
    assert 0.0 < report.p_half < 1.0
    assert math.isfinite(report.sharpness_ratio)


def _count_evaluations(monkeypatch):
    points = []
    real = threshold.availability

    def counted(expr, p):
        points.append(p)
        return real(expr, p)

    monkeypatch.setattr(threshold, "availability", counted)
    return points


def test_locate_work_counts(monkeypatch):
    points = _count_evaluations(monkeypatch)
    width(majority(6401), 0.25)
    assert len(points) <= 15  # three levels; bisection takes 120
    for name in ("ceil_log", "ceil_cuberoot", "ceil_sqrt"):
        points.clear()
        width(build_arbitrary_width(WidthTarget.builtin(name), 2**20).expr, 0.25)
        assert len(points) <= 18, name
    # a wrong slope costs evaluations, never the answer
    tol = 1e-13
    cap = 2 * math.ceil(math.log2(1.0 / tol)) + 4
    real_derivative = threshold.derivative
    for factor in (10.0, 0.1, 0.0):
        monkeypatch.setattr(
            threshold, "derivative", lambda e, p, f=factor: f * real_derivative(e, p)
        )
        for expr in FIXTURES:
            for alpha in LEVELS:
                points.clear()
                p = locate(expr, alpha, tol)
                assert abs(availability(expr, p).value - alpha) <= 1e-10, (factor, expr, alpha)
                assert len(points) <= cap, (factor, expr, alpha, len(points))


# -- width ----------------------------------------------------------------------

def test_width_identity_structure():
    report = width(KOutOfN(1, 1), 0.25, 1e-13)
    assert report.width == pytest.approx(0.5, abs=1e-12)
    assert report.p_half == pytest.approx(0.5, abs=1e-13)
    assert report.sharpness_ratio == pytest.approx(2.0, abs=1e-11)


def test_width_series_closed_form():
    # p(eps) = 1 - (1-eps)^(1/4) for the 4-component series system
    report = width(KOutOfN(1, 4), 0.25, 1e-13)
    assert report.p_lo == pytest.approx(1.0 - 0.75**0.25, abs=1e-12)
    assert report.p_hi == pytest.approx(1.0 - 0.25**0.25, abs=1e-12)
    assert report.width == pytest.approx(0.75**0.25 - 0.25**0.25, abs=1e-12)


def test_width_majority_101_band():
    report = width(KOutOfN(51, 101), 0.25, 1e-13)
    scaled = report.width * math.sqrt(101)
    assert 0.55 <= scaled <= 0.70
    # independent oracle: scipy binomial survival inverted by brentq
    lo = brentq(lambda p: binom.sf(50, 101, p) - 0.25, 1e-9, 1 - 1e-9, xtol=1e-13)
    hi = brentq(lambda p: binom.sf(50, 101, p) - 0.75, 1e-9, 1 - 1e-9, xtol=1e-13)
    assert report.width == pytest.approx(hi - lo, abs=1e-9)


def test_width_monotone_in_epsilon():
    for expr in (KOutOfN(3, 7), product(parallel(2), series(3))):
        taus = [width(expr, eps, 1e-13).width for eps in (0.05, 0.15, 0.25, 0.4, 0.5)]
        for wide, narrow in zip(taus, taus[1:]):
            assert wide >= narrow - 1e-12
    assert width(KOutOfN(3, 7), 0.5, 1e-13).width == pytest.approx(0.0, abs=1e-12)


def test_width_validation():
    with pytest.raises(EvaluationError):
        width(KOutOfN(1, 2), 0.0)
    with pytest.raises(EvaluationError):
        width(KOutOfN(1, 2), 0.6)


# -- Hoeffding bound ---------------------------------------------------------------

def test_hoeffding_examples():
    assert hoeffding_width_bound(100, 0.1) == pytest.approx(
        2 * math.sqrt(math.log(10.0) / 200.0), rel=1e-15
    )
    assert hoeffding_width_bound(100, math.exp(-2)) == pytest.approx(0.2, rel=1e-14)
    for n in (7, 100, 1001):
        assert hoeffding_width_bound(4 * n, 0.1) == pytest.approx(
            hoeffding_width_bound(n, 0.1) / 2.0, rel=1e-15
        )
    with pytest.raises(EvaluationError):
        hoeffding_width_bound(0, 0.1)
    with pytest.raises(EvaluationError):
        hoeffding_width_bound(10, 0.5)


def test_hoeffding_bounds_measured_majority_widths():
    for n in (11, 101, 401):
        tau = width(majority(n), 0.25, 1e-13).width
        assert tau <= hoeffding_width_bound(n, 0.25)


# -- entropy and Cauchy-Schwarz checks ----------------------------------------------

def test_entropy_example_values():
    lower, upper = check_entropy_inequalities(KOutOfN(2, 3), 0.5)
    assert lower.lhs == pytest.approx(0.5 * math.log(2.0) * 1.5, abs=1e-13)
    assert lower.rhs == pytest.approx(0.5 * math.log(2.0), abs=1e-13)
    assert lower.holds and upper.holds


def test_entropy_equality_for_single_coordinate():
    for p in CHECK_GRID:
        lower, _upper = check_entropy_inequalities(KOutOfN(1, 1), p)
        assert lower.slack == 0.0  # mu = p makes the bound an identity
        assert lower.holds


def test_entropy_product_example():
    lower, upper = check_entropy_inequalities(product(parallel(2), series(3)), 0.3)
    assert lower.holds and upper.holds


def test_cauchy_schwarz_example_values():
    check = check_cauchy_schwarz_bound(KOutOfN(2, 3), 0.5)
    assert check.lhs == pytest.approx(1.5, abs=1e-13)
    assert check.rhs == pytest.approx(math.sqrt(3.0), abs=1e-13)
    assert check.holds


def test_cauchy_schwarz_single_coordinate_saturates():
    for p in CHECK_GRID:
        check = check_cauchy_schwarz_bound(KOutOfN(1, 1), p)
        assert check.slack == 0.0
        assert check.holds


def test_cauchy_schwarz_series_example():
    check = check_cauchy_schwarz_bound(KOutOfN(1, 4), 0.1)
    assert check.lhs == pytest.approx(4 * 0.9**3, abs=1e-12)
    assert check.holds


@pytest.mark.parametrize("expr", FIXTURES, ids=FIXTURE_ID)
def test_checks_hold_on_grid(expr):
    for p in CHECK_GRID:
        lower, upper = check_entropy_inequalities(expr, p)
        cs = check_cauchy_schwarz_bound(expr, p)
        for check in (lower, upper, cs):
            assert check.slack >= -SLACK_TOL, (expr, p, check)
            assert check.holds


# -- isoperimetric check -------------------------------------------------------------

def test_gaussian_isoperimetric_profile():
    assert gaussian_isoperimetric(0.5) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)
    for u in (0.01, 0.2, 0.7, 0.99):
        assert gaussian_isoperimetric(u) == pytest.approx(
            norm.pdf(ndtri(u)), rel=1e-9
        )
    with pytest.raises(EvaluationError):
        gaussian_isoperimetric(0.0)


def test_isoperimetric_small_n_slack_is_negative():
    # the slope floor overshoots at tiny n; record, don't demand
    check = check_isoperimetric_bound(3, 0.5)
    mu = availability(majority(3), 0.5).value
    want_rhs = math.sqrt(3) / (0.5 * math.sqrt(math.log(2.0))) * norm.pdf(ndtri(mu))
    assert check.rhs == pytest.approx(want_rhs, rel=1e-9)
    assert check.lhs == pytest.approx(derivative(majority(3), 0.5), rel=1e-12)
    assert not check.holds and check.slack < 0


def test_isoperimetric_holds_near_one():
    check = check_isoperimetric_bound(3, 0.999)
    assert check.holds


def test_isoperimetric_holds_at_moderate_n_tail():
    check = check_isoperimetric_bound(51, 0.8)
    assert check.holds


def test_isoperimetric_validation():
    with pytest.raises(EvaluationError):
        check_isoperimetric_bound(1, 0.5)
    with pytest.raises(EvaluationError):
        check_isoperimetric_bound(3, 0.0)


# -- scans ---------------------------------------------------------------------------

def test_homogeneity_scan_majority():
    rows = homogeneity_scan(majority, [101, 401, 1601], 0.3, 0.7, math.sqrt, 1e-13)
    values = [v for _, v in rows]
    assert max(values) / min(values) <= 1.5
    assert all(v > 0 for v in values)


def test_homogeneity_scan_identity_family():
    rows = homogeneity_scan(lambda n: KOutOfN(1, 1), [1, 1], 0.3, 0.7, lambda n: 1.0, 1e-13)
    for _, v in rows:
        assert v == pytest.approx(1.0, abs=1e-9)


def test_homogeneity_scan_parallel_series():
    def ln_ground(k):
        return math.log(parallel_series(k).n)

    rows = homogeneity_scan(parallel_series, [2**10, 2**14], 0.3, 0.7, ln_ground, 1e-13)
    values = [v for _, v in rows]
    assert max(values) / min(values) <= 2.0


def test_homogeneity_scan_validation():
    with pytest.raises(EvaluationError):
        homogeneity_scan(majority, [5], 0.7, 0.3, math.sqrt)


def test_sharpness_trend_series_is_coarse():
    rows = sharpness_trend(series, [16, 64, 256], 0.25, 1e-13)
    limit = math.log(3.0) / math.log(2.0)
    ratios = [r for _, r, _ in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] == pytest.approx(limit, rel=0.01)
    stats = [s for _, _, s in rows]
    assert all(0.05 < s < 2.0 for s in stats)  # bounded slope stat = coarse


def test_sharpness_trend_parallel_matches_series():
    rows_s = sharpness_trend(series, [256], 0.25, 1e-13)
    rows_p = sharpness_trend(parallel, [256], 0.25, 1e-13)
    assert rows_p[0][1] == pytest.approx(rows_s[0][1], rel=1e-6)


def test_sharpness_trend_parallel_series_is_sharp():
    rows = sharpness_trend(parallel_series, [2**10, 2**14, 2**18], 0.25, 1e-12)
    ratios = [r for _, r, _ in rows]
    stats = [s for _, _, s in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert stats == sorted(stats)  # diverging slope stat = sharp
    assert stats[-1] > stats[0] * 1.5


def test_sharpness_trend_validation():
    with pytest.raises(EvaluationError):
        sharpness_trend(series, [64, 16], 0.25)


def test_product_width_composes_through_levels():
    # p_{AxB}(eps) = p_A(p_B(eps)): the level passes through the outer factor
    pairs = [
        (KOutOfN(2, 3), series(3)),
        (parallel(2), Consecutive(2, 4)),
        (series(2), KOutOfN(2, 4)),
    ]
    for inner, outer in pairs:
        expr = product(inner, outer)
        for eps in (0.1, 0.25, 0.5):
            direct = locate(expr, eps, 1e-13)
            composed = locate(inner, locate(outer, eps, 1e-13), 1e-13)
            assert direct == pytest.approx(composed, abs=1e-9)


def test_parallel_series_location_trend():
    devs = []
    for e in range(8, 21, 2):
        ph = locate(parallel_series(2**e), 0.5, 1e-12)
        devs.append(abs(ph - 0.5))
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 0.08

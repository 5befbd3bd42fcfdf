"""Exact curve evaluation against enumeration, calculus, and scipy oracles."""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest

from thresholdlab import (
    Consecutive,
    EvalResult,
    EvaluationError,
    KOutOfN,
    ReliabilityPolynomial,
    StructureError,
    availability,
    derivative,
    explicit_from_generators,
    influences,
    majority,
    membership,
    parallel,
    product,
    reliability_polynomial,
    series,
)

from thresholdlab import exact_eval
from thresholdlab.exact_eval import MAX_RUN_LENGTH

from conftest import FIXTURES, brute_availability, brute_influence

P_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
FIXTURE_ID = lambda e: type(e).__name__ + str(e.n)


# -- availability -------------------------------------------------------------

@pytest.mark.parametrize("expr", FIXTURES, ids=FIXTURE_ID)
def test_availability_matches_enumeration(expr):
    for p in (0.01, 0.2, 0.5, 0.77, 0.99):
        res = availability(expr, p)
        want = brute_availability(expr, p)
        assert abs(res.value - want) <= max(res.abs_error_bound, 1e-13)


def test_availability_spec_values():
    assert availability(KOutOfN(2, 3), 0.5).value == pytest.approx(0.5, abs=1e-14)
    # parallel pair feeding a 3-way series: 1 - (1 - p^2)^3
    assert availability(product(parallel(2), series(3)), 0.5).value == pytest.approx(
        0.578125, abs=1e-14
    )
    # 9 of the 16 cycle configurations carry two adjacent failures
    assert availability(Consecutive(2, 4), 0.5).value == pytest.approx(
        0.5625, abs=1e-14
    )
    assert availability(KOutOfN(1, 4), 0.5).value == pytest.approx(0.9375, abs=1e-14)


@pytest.mark.parametrize("expr", FIXTURES, ids=FIXTURE_ID)
def test_endpoints(expr):
    assert availability(expr, 0.0).value == 0.0
    assert availability(expr, 1.0).value == 1.0


@pytest.mark.parametrize("expr", FIXTURES, ids=FIXTURE_ID)
def test_curve_strictly_increasing_on_grid(expr):
    values = [availability(expr, i / 100).value for i in range(101)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo
    for lo, hi in zip(values[1:-1], values[2:-1]):
        assert hi > lo  # strict inside (0, 1)


def test_methods_and_error_bounds():
    cases = {
        availability(KOutOfN(1, 1), 0.3).method: "closed_form",
        availability(KOutOfN(1, 9), 0.3).method: "closed_form",
        availability(KOutOfN(9, 9), 0.3).method: "closed_form",
        availability(KOutOfN(3, 9), 0.3).method: "binomial_tail",
        availability(Consecutive(2, 5), 0.3).method: "dp",
        availability(explicit_from_generators(3, ["110"]), 0.3).method: "brute_force",
        availability(product(parallel(2), series(3)), 0.3).method: "composed",
    }
    for got, want in cases.items():
        assert got == want
    for expr in FIXTURES:
        for p in P_GRID:
            assert availability(expr, p).abs_error_bound <= 1e-10


def test_probability_validation():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(EvaluationError):
            availability(KOutOfN(1, 2), bad)
    with pytest.raises(EvaluationError):
        EvalResult(0.5, "magic", 0.0)


def test_series_closed_form_small_p():
    # 1 - (1-p)^n via expm1/log1p keeps relative accuracy at tiny p
    p = 1e-12
    got = availability(KOutOfN(1, 8), p).value
    want = 8 * p - 28 * p * p  # binomial expansion, next term ~1e-34
    assert got == pytest.approx(want, rel=1e-12)
    got = availability(KOutOfN(8, 8), p).value
    assert got == pytest.approx(p**8, rel=1e-12)


def test_product_identity_composition():
    # mu_p(A x B) = mu_{mu_p(A)}(B), and both match flat enumeration
    inner, outer = KOutOfN(2, 3), Consecutive(2, 4)
    expr = product(inner, outer)
    for p in P_GRID:
        composed = availability(expr, p).value
        q = availability(inner, p).value
        assert composed == pytest.approx(availability(outer, q).value, abs=1e-12)
        assert composed == pytest.approx(brute_availability(expr, p), abs=1e-12)


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_product_chain_evaluates_each_stage_once(nesting, monkeypatch):
    # kofn(2,3) maps 1/2 to 1/2, so no stage of the chain saturates
    depth = 65
    expr = KOutOfN(2, 3)
    for _ in range(depth - 1):
        expr = product(expr, KOutOfN(2, 3)) if nesting == "left" else product(KOutOfN(2, 3), expr)
    assert len(expr.stages) == depth
    calls = []
    original = exact_eval._kernel

    def counted(stage, p, value, slope):
        calls.append((value, slope))
        return original(stage, p, value, slope)

    monkeypatch.setattr(exact_eval, "_kernel", counted)
    res = exact_eval.availability(expr, 0.5)
    # 1/2 is a repelling fixed point: the bound follows the 1.5-fold growth
    assert abs(res.value - 0.5) <= res.abs_error_bound <= 1e-2
    # one kernel call per stage, with a slope wherever a bound comes in
    assert calls == [(True, False)] + [(True, True)] * (depth - 1)
    calls.clear()
    assert exact_eval.derivative(expr, 0.5) == pytest.approx(1.5**depth, rel=1e-6)
    # every stage gives its slope; the last stage's value is never used
    assert calls == [(True, True)] * (depth - 1) + [(False, True)]


def test_derivative_evaluates_no_unused_tail(monkeypatch):
    calls = []
    original = exact_eval._binom.upper_tail

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exact_eval._binom, "upper_tail", counted)
    assert derivative(KOutOfN(5_000_000, 10_000_000), 0.5) > 0.0
    assert calls == []
    # only the inner stage's value feeds the outer stage
    assert derivative(product(majority(101), KOutOfN(50, 101)), 0.45) > 0.0
    assert len(calls) == 1


# -- derivative ---------------------------------------------------------------

def test_derivative_spec_values():
    assert derivative(KOutOfN(1, 1), 0.37) == pytest.approx(1.0, abs=1e-15)
    # mu = 3p^2 - 2p^3 so mu' = 6p - 6p^2
    assert derivative(KOutOfN(2, 3), 0.5) == pytest.approx(1.5, abs=1e-13)
    # chain rule through 1 - (1 - p^2)^3
    assert derivative(product(parallel(2), series(3)), 0.5) == pytest.approx(
        1.6875, abs=1e-13
    )


@pytest.mark.parametrize("expr", FIXTURES, ids=FIXTURE_ID)
def test_derivative_matches_central_difference(expr):
    h = 1e-6
    for p in P_GRID:
        fd = (availability(expr, p + h).value - availability(expr, p - h).value) / (2 * h)
        assert abs(derivative(expr, p) - fd) <= 1e-6


@pytest.mark.parametrize("expr", FIXTURES, ids=FIXTURE_ID)
def test_derivative_matches_covariance_identity(expr):
    # mu' = Cov(1_A, sum x_i) / (p (1-p)), by enumeration
    n = expr.n
    for p in (0.2, 0.5, 0.8):
        e_s = n * p
        cov_terms = []
        for bits in itertools.product((0, 1), repeat=n):
            if membership(expr, bits):
                w = sum(bits)
                cov_terms.append((w - e_s) * p**w * (1.0 - p) ** (n - w))
        cov = math.fsum(cov_terms)
        assert derivative(expr, p) == pytest.approx(
            cov / (p * (1.0 - p)), abs=1e-10
        )


def test_derivative_rejects_endpoints():
    for p in (0.0, 1.0):
        with pytest.raises(EvaluationError):
            derivative(KOutOfN(2, 3), p)
        with pytest.raises(EvaluationError):
            derivative(Consecutive(2, 4), p)


# -- influences ----------------------------------------------------------------

def test_influences_spec_values():
    assert influences(KOutOfN(2, 3), 0.5) == pytest.approx([0.5, 0.5, 0.5], abs=1e-14)
    assert influences(KOutOfN(1, 1), 0.5) == pytest.approx([1.0], abs=1e-15)
    vals = influences(product(parallel(2), series(2)), 0.5)
    assert vals == pytest.approx([vals[0]] * 4, abs=1e-14)  # symmetry
    assert math.fsum(vals) == pytest.approx(
        derivative(product(parallel(2), series(2)), 0.5), abs=1e-12
    )


@pytest.mark.parametrize(
    "expr",
    [e for e in FIXTURES if e.n <= 9],
    ids=FIXTURE_ID,
)
def test_influences_match_direct_enumeration(expr):
    for p in (0.3, 0.5, 0.7):
        got = influences(expr, p)
        want = [brute_influence(expr, p, i) for i in range(expr.n)]
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("expr", FIXTURES, ids=FIXTURE_ID)
def test_influence_sum_equals_derivative(expr):
    for p in P_GRID:
        assert math.fsum(influences(expr, p)) == pytest.approx(
            derivative(expr, p), abs=1e-10
        )


def test_influences_size_cap():
    with pytest.raises(StructureError):
        influences(KOutOfN(10, 21), 0.5)


# -- reliability polynomial -----------------------------------------------------

def test_polynomial_spec_values():
    assert reliability_polynomial(KOutOfN(2, 3)).counts == (0, 0, 3, 1)
    assert reliability_polynomial(KOutOfN(1, 2)).counts == (0, 2, 1)
    assert reliability_polynomial(product(parallel(2), series(2))).counts == (0, 0, 2, 4, 1)


@pytest.mark.parametrize("expr", FIXTURES, ids=FIXTURE_ID)
def test_polynomial_consistent_with_availability(expr):
    poly = reliability_polynomial(expr)
    for i in range(21):
        p = i / 20
        assert poly.evaluate(p) == pytest.approx(
            availability(expr, p).value, abs=1e-12
        )


@pytest.mark.parametrize("expr", FIXTURES, ids=FIXTURE_ID)
def test_polynomial_counts_within_binomials_and_density_monotone(expr):
    poly = reliability_polynomial(expr)
    densities = []
    for i, c in enumerate(poly.counts):
        total = math.comb(expr.n, i)
        assert 0 <= c <= total
        densities.append(c / total)
    for lo, hi in zip(densities, densities[1:]):
        assert hi >= lo - 1e-15  # up-closure pushes density upward in weight


def test_polynomial_large_kofn():
    poly = reliability_polynomial(KOutOfN(700, 1400))
    assert poly.counts[699] == 0 and poly.counts[700] == math.comb(1400, 700)
    assert poly.evaluate(0.5) == pytest.approx(
        availability(KOutOfN(700, 1400), 0.5).value, abs=1e-10
    )


def test_polynomial_validation():
    with pytest.raises(EvaluationError):
        ReliabilityPolynomial(2, (0, 3, 1))  # 3 > C(2,1)
    with pytest.raises(EvaluationError):
        ReliabilityPolynomial(2, (0, 1))  # wrong length
    with pytest.raises(StructureError):
        reliability_polynomial(Consecutive(3, 21))  # brute force capped


# -- consecutive dynamic program --------------------------------------------------

@pytest.mark.parametrize("topology", ["circular", "linear"])
@pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (5, 2), (6, 3), (7, 4), (8, 8), (9, 1)])
def test_consecutive_dp_vs_enumeration(topology, n, k):
    expr = Consecutive(k, n, topology)
    for p in (0.05, 0.3, 0.5, 0.9):
        assert availability(expr, p).value == pytest.approx(
            brute_availability(expr, p), abs=1e-13
        )


def test_consecutive_derivative_forward_mode():
    h = 1e-6
    for expr in (Consecutive(3, 12), Consecutive(3, 12, "linear")):
        for p in (0.2, 0.5, 0.8):
            fd = (availability(expr, p + h).value - availability(expr, p - h).value) / (2 * h)
            assert derivative(expr, p) == pytest.approx(fd, abs=1e-7)


# -- consecutive runs against a step-by-step chain ------------------------------

EPS = 2.0**-52


def _run_chain(n_steps, k, p, s0, total=math.fsum):
    """P(a linear chain seeded with a trailing run of s0 ever reaches run k),
    and its slope, walked one unit at a time with forward-mode derivatives.

    Works in floats or in mpmath numbers (pass ``total=mpmath.fsum``).
    """
    q = 1 - p
    v = [0 * p] * k
    v[s0] = 1 + 0 * p
    dv = [0 * p] * k
    absorbed = dabs = 0 * p
    for _ in range(n_steps):
        tot, dtot = total(v), total(dv)
        dabs += v[k - 1] + p * dv[k - 1]
        absorbed += p * v[k - 1]
        dv = [q * dtot - tot] + [v[s] + p * dv[s] for s in range(k - 1)]
        v = [q * tot] + [p * v[s] for s in range(k - 1)]
    return absorbed, dabs


def _chain_oracle(k, n, topology, p, total=math.fsum):
    """(mu, dmu/dp) by O(n k) chains; circular splits on the wrap-point run."""
    if topology == "linear":
        return _run_chain(n, k, p, 0, total)
    q = 1 - p
    mu, dmu = [p**k], [k * p ** (k - 1)]
    for w in range(k):
        chain, dchain = _run_chain(n - 1 - w, k, p, w, total)
        pw = p**w
        mu.append(pw * q * chain)
        dmu.append(((w * p ** (w - 1) * q if w else 0) - pw) * chain + pw * q * dchain)
    return total(mu), total(dmu)


def _mp_oracle(k, n, topology, p):
    with mpmath.workdps(50):
        return _chain_oracle(k, n, topology, mpmath.mpf(p), mpmath.fsum)


ORACLE_CASES = [(1, 3000), (2, 2999), (5, 1000), (7, 2000), (13, 257), (20, 20), (20, 3000)]
ORACLE_PS = (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.8, 0.97, 1.0 - 1e-6)


@pytest.mark.parametrize("topology", ["linear", "circular"])
@pytest.mark.parametrize("k,n", ORACLE_CASES)
def test_consecutive_matches_chain_oracle(k, n, topology):
    expr = Consecutive(k, n, topology)
    for p in ORACLE_PS:
        mu, dmu = _chain_oracle(k, n, topology, p)
        assert abs(availability(expr, p).value - mu) <= 2e-14
        # Near p = 1 the slope is a difference of O(n) terms in both
        # methods, which leaves an absolute noise floor of a few n eps.
        assert abs(derivative(expr, p) - dmu) <= 1e-12 * abs(dmu) + 16 * EPS * n


@pytest.mark.parametrize(
    "k,n,topology,p",
    [
        (3, 1000, "linear", 1e-5),
        (5, 400, "circular", 1e-4),
        (20, 300, "linear", 1e-3),
        (2, 3000, "circular", 1e-8),
        (13, 257, "circular", 1e-6),
    ],
)
def test_consecutive_relative_accuracy_at_tiny_mu(k, n, topology, p):
    expr = Consecutive(k, n, topology)
    mu, dmu = _mp_oracle(k, n, topology, p)
    assert mu < 1e-11
    res = availability(expr, p)
    err = abs(mpmath.mpf(res.value) - mu)
    assert err <= 1e-12 * mu
    assert err <= res.abs_error_bound
    assert abs(mpmath.mpf(derivative(expr, p)) - dmu) <= 1e-12 * dmu


@pytest.mark.parametrize(
    "k,n,topology",
    [
        (1, 3000, "linear"),
        (1, 3000, "circular"),
        (2, 2999, "linear"),
        (2, 2999, "circular"),
        (5, 1000, "linear"),
        (6, 300, "circular"),
        (20, 400, "linear"),
    ],
)
def test_consecutive_bound_against_mpmath_oracle(k, n, topology):
    expr = Consecutive(k, n, topology)
    for p in (1e-6, 1e-3, 0.3, 0.5, 0.8, 1.0 - 1e-6):
        res = availability(expr, p)
        mu, _ = _mp_oracle(k, n, topology, p)
        assert abs(mpmath.mpf(res.value) - mu) <= res.abs_error_bound


@pytest.mark.parametrize("topology", ["linear", "circular"])
@pytest.mark.parametrize(
    "k,n",
    [(1, 1), (1, 2), (2, 3), (1, 5), (3, 5), (5, 5), (2, 8), (4, 8), (1, 13), (3, 13),
     (13, 13), (2, 20), (5, 20), (20, 20)],
)
def test_consecutive_bound_against_brute_force(k, n, topology):
    # Exact rationals: each double p is a binary fraction, so the member
    # counts by weight give the true mu to compare against the bound.
    expr = Consecutive(k, n, topology)
    counts = reliability_polynomial(expr).counts
    for p in (1e-9, 1e-5, 0.3, 0.5, 0.9, 1.0 - 2.0**-40):
        fp = Fraction(p)
        exact = sum(c * fp**i * (1 - fp) ** (n - i) for i, c in enumerate(counts))
        res = availability(expr, p)
        assert abs(Fraction(res.value) - exact) <= Fraction(res.abs_error_bound)


def test_consecutive_bound_is_relative():
    # consec(3,1000,linear) at p = 1e-5 has mu ~ 1e-12; an absolute bound of
    # n eps would be as large as mu itself
    res = availability(Consecutive(3, 1000, "linear"), 1e-5)
    assert res.abs_error_bound <= 1e-11 * res.value


@pytest.mark.parametrize("topology", ["linear", "circular"])
def test_consecutive_single_run_at_huge_n_is_series(topology):
    n = 10**12
    expr = Consecutive(1, n, topology)
    for p in (1e-14, 1e-12, 2.0**-40, 2.5e-12, 1e-11):
        got, want = availability(expr, p), availability(series(n), p)
        assert abs(got.value - want.value) <= got.abs_error_bound + want.abs_error_bound
        # the slope carries the same n-fold rounding growth as mu
        growth = (n + 1) * 4 * EPS
        assert derivative(expr, p) == pytest.approx(derivative(series(n), p), rel=growth)


@pytest.mark.parametrize("topology", ["linear", "circular"])
@pytest.mark.parametrize("n", [1, 2, 7, 64, MAX_RUN_LENGTH])
def test_consecutive_full_run_is_p_to_the_n(n, topology):
    expr = Consecutive(n, n, topology)
    assert availability(expr, 0.5).value == 0.5**n
    for p in (1e-3, 0.3, 0.9, 0.999):
        res = availability(expr, p)
        assert abs(Fraction(res.value) - Fraction(p) ** n) <= Fraction(res.abs_error_bound)
        assert res.value == pytest.approx(p**n, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("expr, p", [
    (Consecutive(8, 150), 0.999969878252562),
    (Consecutive(12, 115, "linear"), 0.9997630574891393),
])
def test_consecutive_slope_is_never_negative(expr, p):
    # near p = 1 the matrix-power slope is a difference of O(n) terms
    assert derivative(expr, p) >= 0.0


def test_consecutive_run_length_cap():
    expr = Consecutive(MAX_RUN_LENGTH + 1, 2 * MAX_RUN_LENGTH)
    assert availability(expr, 0.0).value == 0.0
    assert availability(expr, 1.0).value == 1.0
    with pytest.raises(EvaluationError):
        availability(expr, 0.5)
    with pytest.raises(EvaluationError):
        derivative(expr, 0.5)


def test_consecutive_refuses_sizes_without_a_certain_digit():
    # the relative bound factor expm1((n+1)(k+3) eps) reaches 1 at ln 2
    n = math.ceil(math.log(2.0) / (5 * 2.0**-52))
    assert availability(Consecutive(2, n - 2), 0.5).abs_error_bound < 1.0
    expr = Consecutive(2, n)
    assert availability(expr, 0.0).value == 0.0
    assert availability(expr, 1.0).value == 1.0
    with pytest.raises(EvaluationError, match=r"\(n\+1\)\(k\+3\)"):
        availability(expr, 0.5)
    with pytest.raises(EvaluationError, match=r"\(n\+1\)\(k\+3\)"):
        derivative(expr, 0.5)

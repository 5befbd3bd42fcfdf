"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and the recorded tables.  Two clauses are implemented exactly as specified
but are mathematically unattainable at the stated sizes; they live in
strict-xfail tests whose docstrings carry the measured analysis, and their
criteria print FAIL(expected) rather than being silently loosened.
"""

import math
import random

import pytest
from scipy.optimize import brentq
from scipy.stats import binom

from thresholdlab import (
    Consecutive,
    Explicit,
    KOutOfN,
    WidthTarget,
    availability,
    build_arbitrary_width,
    check_cauchy_schwarz_bound,
    check_entropy_inequalities,
    check_isoperimetric_bound,
    derivative,
    estimate_availability,
    hoeffding_width_bound,
    influences,
    locate,
    majority,
    parallel,
    parallel_series,
    product,
    series,
    upward_closure,
    width,
)

from conftest import FIXTURES, brute_availability

P_DECI = [round(0.1 * i, 1) for i in range(1, 10)]          # 0.1 .. 0.9
P_VIGINTI = [round(0.05 * i, 2) for i in range(1, 20)]       # 0.05 .. 0.95
TOL = 1e-13


def report(num: int, status: str, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {status:>14s}  {detail}")


def _random_up_closed(rng: random.Random, n: int) -> Explicit:
    while True:
        gens = [
            tuple(rng.randint(0, 1) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if any(g)]
        if gens:
            return Explicit(n, upward_closure(n, gens))


def test_criterion_01_product_identity():
    """Composed evaluation equals flat brute-force enumeration, 20 random pairs."""
    rng = random.Random(20260809)
    worst = 0.0
    for _ in range(20):
        inner = _random_up_closed(rng, rng.randint(1, 4))
        outer = _random_up_closed(rng, rng.randint(1, 4))
        expr = product(inner, outer)
        for p in P_DECI:
            got = availability(expr, p).value
            flat = brute_availability(expr, p)
            worst = max(worst, abs(got - flat))
    assert worst <= 1e-12, worst
    report(1, "PASS", f"20 random product pairs, max |flat - composed| = {worst:.2e}")


def test_criterion_02_majority_width_scaling():
    """Width of the majority family scales as 1/sqrt(n) under its hard bound.

    The anchor for the scaling band is an independent inversion of the
    scipy binomial survival function at n = 6401.
    """
    eps = 0.25
    sizes = (101, 401, 1601, 6401)

    def oracle_tau(n):
        k = n // 2
        lo = brentq(lambda p: binom.sf(k - 1, n, p) - eps, 1e-9, 1 - 1e-9, xtol=1e-13)
        hi = brentq(lambda p: binom.sf(k - 1, n, p) - (1 - eps), 1e-9, 1 - 1e-9, xtol=1e-13)
        return hi - lo

    anchor = oracle_tau(6401) * math.sqrt(6401)
    scaled = {}
    for n in sizes:
        tau = width(majority(n), eps, TOL).width
        assert tau <= hoeffding_width_bound(n, eps), (n, tau)
        assert tau == pytest.approx(oracle_tau(n), abs=1e-9)
        scaled[n] = tau * math.sqrt(n)
        assert abs(scaled[n] / anchor - 1.0) <= 0.125, (n, scaled[n], anchor)
    report(
        2,
        "PASS",
        "tau*sqrt(n) = "
        + " ".join(f"{scaled[n]:.4f}" for n in sizes)
        + f" within 12.5% of anchor {anchor:.4f}; Hoeffding bound respected",
    )


def test_criterion_03_parallel_series_asymptotics():
    """Block system: location drifts to 1/2 and tau*ln(K) sits near a constant.

    Two candidate constants exist for the limit of tau*ln(K) at level eps,
    differing by a factor ln 2:

        A = ln(ln(1/eps)/ln(1/(1-eps))) / 2
        B = ln(2) * A' with the same inner ratio

    The measured values are compared against both; the closer one is
    recorded.  (The direct expansion of the closed form p_alpha =
    (1 - (1-alpha)^(1/r))^(1/m) yields B.)
    """
    eps = 0.1
    ratio_term = math.log(math.log(1 / eps) / math.log(1 / (1 - eps)))
    cand_plain = ratio_term / 2.0
    cand_log2 = math.log(2.0) * ratio_term / 2.0

    devs = []
    measured = []
    for e in (10, 14, 18):
        k = 2**e
        bk = parallel_series(k)
        m, r = (stage.n for stage in bk.stages)

        def closed(alpha):
            return (-math.expm1(math.log1p(-alpha) / r)) ** (1.0 / m)

        rep = width(bk, eps, TOL)
        assert rep.p_half == pytest.approx(closed(0.5), abs=1e-9)
        assert rep.width == pytest.approx(closed(1 - eps) - closed(eps), abs=1e-9)
        devs.append(abs(rep.p_half - 0.5))
        measured.append((k, rep.width * math.log(bk.n)))

    assert devs == sorted(devs, reverse=True), devs       # improving with k
    assert devs[-1] < 0.08, devs
    for _k, tl in measured:
        assert min(abs(tl / cand_plain - 1.0), abs(tl / cand_log2 - 1.0)) <= 0.30
    k_big, tl = measured[-1]
    dev_plain = abs(tl / cand_plain - 1.0)
    dev_log2 = abs(tl / cand_log2 - 1.0)
    closer = "with-ln2 constant" if dev_log2 < dev_plain else "plain constant"
    report(
        3,
        "PASS",
        f"p_half devs {' '.join(f'{d:.4f}' for d in devs)} (final < 0.08); "
        f"tau*lnK at 2^18 = {tl:.4f} vs plain {cand_plain:.4f} ({dev_plain:.1%}) / "
        f"with-ln2 {cand_log2:.4f} ({dev_log2:.1%}); closer: {closer}",
    )


def _bk_sharpness(k: int) -> float:
    return width(parallel_series(k), 0.25, 1e-12).sharpness_ratio


def test_criterion_04_coarse_factors_sharp_product():
    """Series and parallel families are coarse; their composition is sharp.

    Asserts the two coarse limits (within 10% of ln(3)/ln(2) at m = 256 for
    eps = 0.25) and the composed family's smallness (ratio at k = 2^18
    below 0.3).  The remaining halving clause is unattainable and lives in
    the companion xfail test; its measured values are printed here.
    """
    limit = math.log(3.0) / math.log(2.0)
    for family in (series, parallel):
        rep = width(family(256), 0.25, TOL)
        assert abs(rep.sharpness_ratio / limit - 1.0) <= 0.10, family
    r_small = _bk_sharpness(2**10)
    r_big = _bk_sharpness(2**18)
    assert r_big < 0.3, r_big
    halved = r_big < 0.5 * r_small
    report(
        4,
        "PASS" if halved else "FAIL(expected)",
        f"series/parallel ratios at 256 within 10% of {limit:.4f}; block-system "
        f"ratio {r_small:.4f} (2^10) -> {r_big:.4f} (2^18), below 0.3, but "
        f"{r_big:.4f} >= half of {r_small:.4f}; see xfail analysis",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ratio(2^18)=0.2047 is not < 0.5*ratio(2^10)=0.1976: the ratio decays "
        "like const/ln(K) and ln(K(2^10))/ln(K(2^18)) = 6.93/12.48 = 0.555 > 0.5, "
        "so a factor-2 drop between these two sizes is impossible; it first "
        "occurs near k = 2^20"
    ),
)
def test_criterion_04_block_system_ratio_halves():
    """Halving clause, implemented exactly as stated.

    Unattainable at the stated sizes: the sharpness ratio of the block
    system decays proportionally to 1/ln(K), and the ln(K) ratio between
    k = 2^10 (K = 1020) and k = 2^18 (K = 262134) is only 0.555, with
    finite-size corrections pushing the measured quotient to 0.518.
    """
    assert _bk_sharpness(2**18) < 0.5 * _bk_sharpness(2**10)


def test_criterion_05_width_targeted_construction():
    """Cube-root width target: tau*c(N) in a factor-3 band, location -> 1/2."""
    target = WidthTarget.builtin("ceil_cuberoot")
    eps = 0.25
    sizes = [2**10, 2**14, 2**18, 2**22]
    prods = []
    p_half = None
    for n in sizes:
        record = build_arbitrary_width(target, n)
        rep = width(record.expr, eps, TOL)
        prods.append(rep.width * target.c(record.ground_size))
        p_half = rep.p_half

    # independent anchor at the smallest size: closed-form block inversion
    # feeding a scipy binomial inversion for the inner majority
    record = build_arbitrary_width(target, sizes[0])

    def oracle_locate(alpha):
        q = (-math.expm1(math.log1p(-alpha) / record.r)) ** (1.0 / record.m)
        kk = record.a // 2
        return brentq(lambda p: binom.sf(kk - 1, record.a, p) - q, 1e-12, 1 - 1e-12)

    oracle_tau = oracle_locate(1 - eps) - oracle_locate(eps)
    assert prods[0] == pytest.approx(oracle_tau * target.c(record.ground_size), abs=1e-6)

    band = max(prods) / min(prods)
    assert band <= 3.0, prods
    assert abs(p_half - 0.5) <= 0.1, p_half
    report(
        5,
        "PASS",
        f"tau*c(N) = {' '.join(f'{v:.4f}' for v in prods)} (band x{band:.2f} <= 3); "
        f"p_half at 2^22 = {p_half:.4f}",
    )


def test_criterion_06_influence_sum_is_slope():
    """Sum of pivotality probabilities equals the analytic slope everywhere."""
    worst_sum = 0.0
    worst_fd = 0.0
    h = 1e-6
    for expr in FIXTURES:
        assert expr.n <= 16
        for p in P_DECI:
            dmu = derivative(expr, p)
            worst_sum = max(worst_sum, abs(math.fsum(influences(expr, p)) - dmu))
            fd = (availability(expr, p + h).value - availability(expr, p - h).value) / (2 * h)
            worst_fd = max(worst_fd, abs(dmu - fd))
    assert worst_sum <= 1e-10, worst_sum
    assert worst_fd <= 1e-6, worst_fd
    report(
        6,
        "PASS",
        f"max |sum(influences) - mu'| = {worst_sum:.2e}; "
        f"max |mu' - central fd| = {worst_fd:.2e}",
    )


def test_criterion_07_entropy_and_cauchy_schwarz():
    """Entropy and covariance slope bounds never go negative; identity is tight."""
    worst = math.inf
    for expr in FIXTURES:
        for p in P_VIGINTI:
            lower, upper = check_entropy_inequalities(expr, p)
            cs = check_cauchy_schwarz_bound(expr, p)
            for check in (lower, upper, cs):
                worst = min(worst, check.slack)
                assert check.slack >= -1e-12, (expr, p, check)
    eq_worst = 0.0
    for p in P_VIGINTI:
        lower, _ = check_entropy_inequalities(KOutOfN(1, 1), p)
        eq_worst = max(eq_worst, abs(lower.slack))
        assert abs(lower.slack) <= 1e-12
    report(
        7,
        "PASS",
        f"min slack over fixtures x grid = {worst:.2e} (>= -1e-12); "
        f"single-coordinate identity slack <= {eq_worst:.2e}",
    )


_ISO_GRID = [round(0.2 + 0.1 * i, 1) for i in range(7)]      # 0.2 .. 0.8


def _isoperimetric_table():
    return {
        n: [check_isoperimetric_bound(n, p).slack for p in _ISO_GRID]
        for n in (11, 51, 101)
    }


def test_criterion_08_isoperimetric_slack_table():
    """Produce the slope-floor slack table; small-n slack is recorded, not judged.

    The hard clause (all slacks nonnegative at n = 101) is implemented in
    the companion xfail test; the measured table shows why it cannot pass.
    """
    table = _isoperimetric_table()
    lines = []
    for n, slacks in table.items():
        lines.append(
            f"    n={n:3d}: " + " ".join(f"{s:+.3e}" for s in slacks)
        )
    holds_at_101 = all(s >= -1e-12 for s in table[101])
    report(
        8,
        "PASS" if holds_at_101 else "FAIL(expected)",
        "slack table for p in 0.2..0.8 recorded below; bound still violated "
        "around p = 1/2 at n = 101 (see xfail analysis)\n" + "\n".join(lines),
    )
    assert set(table) == {11, 51, 101}
    assert all(len(v) == len(_ISO_GRID) for v in table.values())
    # the floor does hold in the upper tail at moderate n, so the check
    # itself is wired correctly
    assert check_isoperimetric_bound(101, 0.8).holds


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at n = 101, p = 0.5 the majority slope is 7.881 but the floor is "
        "9.584; the deficit is structural, since slope/floor -> sqrt(ln 2) = "
        "0.833 < 1 as n grows at p = 1/2 with the natural-log floor (equality "
        "would need the log base 2), so no n repairs this grid point"
    ),
)
def test_criterion_08_isoperimetric_bound_at_101():
    """Hard clause, implemented exactly as stated: floor holds at n = 101.

    Measured slacks at n = 101 for p = 0.2 .. 0.8 are
    -2.6e-09, -9.9e-04, -4.1e-01, -1.56e+00, -8.7e-02, -2.5e-05, +2.5e-11:
    only the p = 0.8 grid point clears the floor.
    """
    for p in _ISO_GRID:
        check = check_isoperimetric_bound(101, p)
        assert check.holds, (p, check.slack)


def test_criterion_09_inversion_round_trip():
    """locate() then availability() returns the requested level everywhere."""
    levels = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    worst = 0.0
    for expr in FIXTURES:
        for alpha in levels:
            p = locate(expr, alpha, TOL)
            worst = max(worst, abs(availability(expr, p).value - alpha))
    assert worst <= 1e-10, worst
    report(9, "PASS", f"max |mu(p(alpha)) - alpha| = {worst:.2e} over fixtures x levels")


def test_criterion_10_monte_carlo_coverage():
    """95% Wilson intervals cover the exact value in >= 180 of 200 seeded runs."""
    cases = [
        (KOutOfN(1, 1), 0.5),
        (product(parallel(2), series(3)), 0.5),
        (Consecutive(2, 4), 0.5),
    ]
    counts = []
    for expr, p in cases:
        exact = availability(expr, p).value
        hits = 0
        for seed in range(200):
            est = estimate_availability(expr, p, 1500, seed=seed)
            if est.ci_lo <= exact <= est.ci_hi:
                hits += 1
        counts.append(hits)
        assert hits >= 180, (expr, hits)
    expr, p = cases[1]
    assert estimate_availability(expr, p, 1500, seed=0) == estimate_availability(
        expr, p, 1500, seed=0
    )
    report(
        10,
        "PASS",
        f"coverage {counts[0]}/200, {counts[1]}/200, {counts[2]}/200; "
        "identical seeds reproduce identical bits",
    )

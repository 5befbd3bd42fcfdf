"""Seeded Monte Carlo estimation and Wilson intervals."""

import pytest

from thresholdlab import (
    Consecutive,
    KOutOfN,
    McError,
    availability,
    estimate_availability,
    estimate_to_halfwidth,
    parallel,
    parallel_series,
    product,
    series,
    wilson_interval,
)
from thresholdlab import montecarlo

SMALL = [
    (KOutOfN(1, 1), 0.5),
    (product(parallel(2), series(3)), 0.5),
    (Consecutive(2, 4), 0.5),
]


def test_wilson_interval_shape():
    lo, hi = wilson_interval(50, 100)
    assert 0.0 <= lo <= 0.5 <= hi <= 1.0
    # near-boundary counts keep a valid, asymmetric interval
    lo, hi = wilson_interval(0, 351)
    assert lo == 0.0 and 0.0 < hi < 0.02
    lo, hi = wilson_interval(351, 351)
    assert 0.98 < lo < 1.0 and hi == 1.0
    with pytest.raises(McError):
        wilson_interval(1, 0)


def test_estimate_is_deterministic():
    expr = product(parallel(2), series(3))
    a = estimate_availability(expr, 0.5, 4321, seed=9)
    b = estimate_availability(expr, 0.5, 4321, seed=9)
    assert a == b
    c = estimate_availability(expr, 0.5, 4321, seed=10)
    assert c != a


def test_estimate_brackets_its_own_phat():
    for expr, p in SMALL:
        est = estimate_availability(expr, p, 2000, seed=1)
        assert est.ci_lo <= est.p_hat <= est.ci_hi
        assert est.samples == 2000


def test_estimate_agrees_with_exact():
    for expr, p in SMALL:
        exact = availability(expr, p).value
        for seed in range(5):
            est = estimate_availability(expr, p, 20000, seed=seed)
            assert abs(est.p_hat - exact) <= 4 * est.halfwidth


def test_estimate_interval_contains_exact_for_spec_fixtures():
    for expr, p in SMALL:
        exact = availability(expr, p).value
        est = estimate_availability(expr, p, 10**5, seed=0)
        assert est.ci_lo <= exact <= est.ci_hi


def test_estimate_validation():
    with pytest.raises(McError):
        estimate_availability(KOutOfN(1, 1), 0.5, 99)
    with pytest.raises(McError, match="100 to 100000000 samples"):
        estimate_availability(KOutOfN(1, 1), 0.5, montecarlo.SAMPLE_CAP + 1)


def test_halfwidth_mode():
    est = estimate_to_halfwidth(KOutOfN(51, 101), 0.5, 0.01, seed=7)
    assert est.halfwidth <= 0.01
    assert not est.capped
    # at p_hat ~ 1/2 the Wilson width formula wants ~1e4 samples
    assert 5000 <= est.samples <= 50000
    assert est.ci_lo <= availability(KOutOfN(51, 101), 0.5).value <= est.ci_hi


def test_halfwidth_boundary_phat():
    est = estimate_to_halfwidth(series(4), 0.01, 0.02, seed=3)
    assert est.ci_lo <= est.p_hat <= est.ci_hi
    assert est.halfwidth <= 0.02


def test_halfwidth_cap_reported(monkeypatch):
    monkeypatch.setattr(montecarlo, "SAMPLE_CAP", 4096)
    est = estimate_to_halfwidth(KOutOfN(2, 3), 0.5, 1e-6, seed=0)
    assert est.capped
    assert est.samples == 4096


def test_halfwidth_validation():
    with pytest.raises(McError):
        estimate_to_halfwidth(KOutOfN(1, 1), 0.5, 0.5)
    with pytest.raises(McError):
        estimate_to_halfwidth(KOutOfN(1, 1), 0.5, 0.0)


def test_large_structure_sampling():
    expr = parallel_series(1 << 10)  # 1020 coordinates
    exact = availability(expr, 0.6, ).value
    est = estimate_availability(expr, 0.6, 3000, seed=11)
    assert abs(est.p_hat - exact) <= 4 * est.halfwidth


def test_rows_past_the_batch_are_refused():
    with pytest.raises(McError, match="n <= 2097152"):
        estimate_availability(series(10**11), 0.5, 100)
    with pytest.raises(McError, match="n <= 2097152"):
        estimate_to_halfwidth(series(10**11), 0.5, 0.1)


def test_coverage_quick():
    # light version of the acceptance coverage gate
    expr, p = SMALL[1]
    exact = availability(expr, p).value
    hits = sum(
        1
        for seed in range(60)
        if (lambda e: e.ci_lo <= exact <= e.ci_hi)(
            estimate_availability(expr, p, 1500, seed=seed)
        )
    )
    assert hits >= 52

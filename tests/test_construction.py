"""Width-targeted construction: profile map, inversion, builds, scaling."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thresholdlab import (
    EvaluationError,
    KOutOfN,
    PermutationPair,
    Product,
    TargetError,
    WidthTarget,
    build_arbitrary_width,
    invert_phi,
    parallel_series,
    phi,
    scaling_experiment,
    verify_invariance,
    verify_monotone,
    width,
)


# -- profile map -------------------------------------------------------------

def test_phi_values():
    assert phi(100, 1.0) == pytest.approx(math.log(100) ** 2, rel=1e-14)
    x_right = 100 / math.e**2
    assert phi(100, x_right) == pytest.approx(4 * 100 / math.e**2, rel=1e-13)
    assert phi(1000, 3.0) == pytest.approx(3 * math.log(1000 / 3) ** 2, rel=1e-14)
    assert 101.0 < phi(1000, 3.0) < 101.5


def test_phi_domain():
    with pytest.raises(EvaluationError):
        phi(100, 0.5)
    with pytest.raises(EvaluationError):
        phi(100, 101.0)


def test_invert_phi_endpoints():
    assert invert_phi(100, math.log(100) ** 2) == pytest.approx(1.0, abs=1e-8)
    x_right = 100 / math.e**2
    assert invert_phi(100, 4 * 100 / math.e**2) == pytest.approx(x_right, rel=1e-7)


def test_invert_phi_example():
    x = invert_phi(1000, 100.0)
    assert 2.9 < x < 3.0  # bracketed by phi(1000, 2.9) ~ 99.0 and phi(1000, 3.0) ~ 101.2
    assert phi(1000, x) == pytest.approx(100.0, rel=1e-9)


def test_invert_phi_range_validation():
    with pytest.raises(EvaluationError, match="range"):
        invert_phi(100, 1.0)
    with pytest.raises(EvaluationError, match="range"):
        invert_phi(100, 1000.0)


@given(n=st.integers(10, 10**6), frac=st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=120, deadline=None)
@example(n=2660, frac=0.9999999999999999)  # here a few ulps of error in phi move x by ~1e-9
def test_invert_phi_is_inverse(n, frac):
    # x within ~sqrt(eps) of the flat point n/e^2 is not recoverable from a
    # double-precision phi value (the derivative vanishes there), so the
    # identity is quantified on [1, (1 - 1e-6) n/e^2].
    x = 1.0 + (n / math.e**2 * (1.0 - 1e-6) - 1.0) * frac
    x_back = invert_phi(n, phi(n, x))
    assert abs(x_back - x) <= 1e-9 * x + 1e-9
    assert abs(phi(n, x_back) - phi(n, x)) <= 1e-9 * phi(n, x)


# -- width targets -------------------------------------------------------------

def test_builtin_targets_validate():
    for name in WidthTarget.BUILTINS:
        target = WidthTarget.builtin(name)
        for n in (1 << 10, 1 << 14, 1 << 20):
            c = target.c(n)
            assert math.log(n) <= c <= math.ceil(math.sqrt(n))
    with pytest.raises(TargetError):
        WidthTarget.builtin("ceil_exp")


def test_target_envelope_rejections():
    too_small = WidthTarget("const1", lambda n: 1)
    with pytest.raises(TargetError, match="envelope"):
        too_small.c(100)
    too_big = WidthTarget("linear", lambda n: n)
    with pytest.raises(TargetError, match="envelope"):
        too_big.c(100)


# A width profile can sit inside the ln(n)..sqrt(n) envelope at every point
# while still jumping too abruptly to be realized: alternate c(n) = ceil(ln n)
# on [a_j, 2a_j) with the plateau floor(sqrt(2 a_j)) on [2a_j, a_{j+1}), where
# a_{j+1} = exp(floor(sqrt(2 a_j))).  Pointwise validation accepts it (that is
# all it can check); the doubling ratio c(2 a_j)/c(a_j) is unbounded in j.
PATHOLOGICAL_TARGET_ROWS = {
    20: 3,            # a_2 = 20 = round(e^3): ceil(ln 20)
    40: 6,            # 2 a_2: floor(sqrt(40))
    403: 6,           # a_3 = round(e^6): ceil(ln 403)
    806: 28,          # 2 a_3: floor(sqrt(806))
    1446257064291: 28,            # a_4 = round(e^28): ceil(ln a_4)
    2892514128582: 1700739,       # 2 a_4: floor(sqrt(2 a_4))
}


def test_pathological_target_passes_pointwise_validation():
    target = WidthTarget.from_table(PATHOLOGICAL_TARGET_ROWS, name="pathological")
    for n in PATHOLOGICAL_TARGET_ROWS:
        c = target.c(n)  # envelope holds at every supplied point
        assert math.log(n) <= c <= math.ceil(math.sqrt(n))
    jumps = [
        target.c(40) / target.c(20),
        target.c(806) / target.c(403),
        target.c(2892514128582) / target.c(1446257064291),
    ]
    assert jumps == sorted(jumps)
    assert jumps[-1] > 1000 * jumps[0]  # doubling ratio runs away


def test_target_table():
    target = WidthTarget.from_table({1024: 11, 4096: 17, 16384: 26})
    assert target.c(1024) == 11
    assert target.c(2000) == 11  # step lookup at the last row at or below n
    with pytest.raises(TargetError, match="nondecreasing"):
        WidthTarget.from_table({16: 10, 32: 6})
    with pytest.raises(TargetError):
        WidthTarget.from_table({})
    with pytest.raises(TargetError, match="below"):
        WidthTarget.from_table({1024: 11}).c(512)


# -- parallel-series factor ------------------------------------------------------

def test_parallel_series_shape():
    bk = parallel_series(1024)
    assert isinstance(bk, Product)
    assert bk.stages == (KOutOfN(10, 10), KOutOfN(1, 102))
    assert bk.n == 1020
    with pytest.raises(TargetError):
        parallel_series(1)


# -- builds -----------------------------------------------------------------------

def test_build_cuberoot_example():
    record = build_arbitrary_width(WidthTarget.builtin("ceil_cuberoot"), 1000)
    assert record.a == 3
    assert record.k == 333
    assert record.m == 8
    assert record.r == 39
    assert record.ground_size == 3 * 8 * 39 == 936
    assert record.nominal_ground_size == 999
    assert record.target_width_inverse == pytest.approx(10.0)
    assert record.expr == Product(KOutOfN(1, 3), Product(KOutOfN(8, 8), KOutOfN(1, 39)))


def test_build_log_target_clamps_inner():
    # c ~ ln n drives the inverse to the left endpoint; the inner majority
    # clamps at 2 and the parallel-series factor dominates
    record = build_arbitrary_width(WidthTarget.builtin("ceil_log"), 1 << 20)
    assert record.a == 2
    assert record.k == (1 << 20) // 2


def test_build_sqrt_target_hits_cap():
    # the capped branch pins a near n/e^2
    record = build_arbitrary_width(WidthTarget.builtin("ceil_sqrt"), 10**4)
    assert record.a == pytest.approx(10**4 / math.e**2, rel=0.01)
    assert record.target_width_inverse == pytest.approx(2 * math.sqrt(10**4) / math.e, rel=1e-12)


def test_capped_inner_size_is_exactly_n_over_e2():
    # 479849 / e^2 = 64940.50033 lies 5e-9 relative above a half-integer.
    # phi is flat at that maximum, so bisecting on it rounded a down to 64940.
    n = 479849
    record = build_arbitrary_width(WidthTarget.builtin("ceil_sqrt"), n)
    assert record.a == round(n / math.exp(2.0)) == 64941
    rows = scaling_experiment(WidthTarget.builtin("ceil_sqrt"), [n], 0.25, 1e-12)
    assert rows[0][1] == 259764


def test_build_too_small_rejected():
    # below e^2 the profile map has no increasing branch to invert
    with pytest.raises(TargetError, match="n >= 8"):
        build_arbitrary_width(WidthTarget.builtin("ceil_sqrt"), 7)
    with pytest.raises(EvaluationError, match="n >= 8"):
        invert_phi(7, 3.789)


def test_built_structure_is_monotone_and_symmetric():
    # n = 8 under ceil_sqrt gives a 2 x (2 x 2) build, small enough to enumerate
    record = build_arbitrary_width(WidthTarget.builtin("ceil_sqrt"), 8)
    expr = record.expr
    assert expr.n <= 20
    assert verify_monotone(expr)
    # swap inside the inner majority pair; block permutations on the factor
    assert verify_invariance(expr, PermutationPair(g=(1, 0), h=(0, 1, 2, 3)))
    assert verify_invariance(expr, PermutationPair(g=(0, 1), h=(1, 0, 3, 2)))
    assert verify_invariance(expr, PermutationPair(g=(1, 0), h=(2, 3, 0, 1)))


def test_capped_profile_matches_plain_profile_away_from_sqrt():
    target = WidthTarget.builtin("ceil_cuberoot")
    for n in (1 << 10, 1 << 16):
        record = build_arbitrary_width(target, n)
        assert record.target_width_inverse == float(target.c(n))


# -- scaling ------------------------------------------------------------------------

def test_scaling_experiment_single_size():
    rows = scaling_experiment(WidthTarget.builtin("ceil_cuberoot"), [1 << 12], 0.25, 1e-12)
    assert len(rows) == 1
    n, size, c_n, tau, prod = rows[0]
    assert n == 1 << 12
    assert tau > 0
    assert prod == pytest.approx(tau * c_n)


def test_scaling_experiment_band_and_location():
    sizes = [1 << 10, 1 << 13, 1 << 16]
    rows = scaling_experiment(WidthTarget.builtin("ceil_cuberoot"), sizes, 0.25, 1e-12)
    prods = [row[4] for row in rows]
    assert max(prods) / min(prods) <= 3.0
    record = build_arbitrary_width(WidthTarget.builtin("ceil_cuberoot"), sizes[-1])
    assert abs(width(record.expr, 0.25, 1e-12).p_half - 0.5) < 0.1


def test_scaling_log_target_tracks_parallel_series():
    sizes = [1 << 12, 1 << 16]
    rows = scaling_experiment(WidthTarget.builtin("ceil_log"), sizes, 0.25, 1e-12)
    # tau * c(N) with c ~ ln N stays in a bounded band
    prods = [row[4] for row in rows]
    assert max(prods) / min(prods) <= 2.0


def test_scaling_validation():
    with pytest.raises(EvaluationError):
        scaling_experiment(WidthTarget.builtin("ceil_cuberoot"), [64, 32], 0.25)

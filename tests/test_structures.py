"""Structure algebra: membership, products, monotonicity, invariance."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholdlab import (
    Configuration,
    Consecutive,
    Explicit,
    KOutOfN,
    PermutationPair,
    StructureError,
    explicit_from_generators,
    format_expr,
    majority,
    membership,
    parallel,
    product,
    series,
    spot_check_monotone,
    truth_table,
    upward_closure,
    verify_invariance,
    verify_monotone,
)
from thresholdlab.construction import parallel_series
from thresholdlab.structures import enumerate_bits

from conftest import FIXTURES


# -- construction & validation ----------------------------------------------

def test_kofn_bounds():
    KOutOfN(1, 1)
    KOutOfN(5, 5)
    with pytest.raises(StructureError):
        KOutOfN(0, 3)  # would be the full set
    with pytest.raises(StructureError):
        KOutOfN(4, 3)  # would be empty


def test_consecutive_bounds():
    Consecutive(1, 1)
    with pytest.raises(StructureError):
        Consecutive(0, 4)
    with pytest.raises(StructureError):
        Consecutive(5, 4)
    with pytest.raises(StructureError):
        Consecutive(2, 4, "moebius")


def test_explicit_rejects_non_up_closed():
    # {(1,0)} misses (1,1), so construction must fail before any operation
    with pytest.raises(StructureError, match="not up-closed"):
        Explicit(2, frozenset([(1, 0)]))
    # the message names a member whose flip at one coordinate is not one
    members = upward_closure(5, ["11000", "00110"]) - {(1, 1, 0, 1, 1)}
    with pytest.raises(StructureError, match="not up-closed") as exc:
        Explicit(5, members)
    inside, outside = re.search(r"(\d+) is a member but (\d+) is not", str(exc.value)).groups()
    inside, outside = Configuration(inside).bits, Configuration(outside).bits
    assert inside in members and outside not in members
    assert [b - a for a, b in zip(inside, outside) if a != b] == [1]


def test_explicit_rejects_trivial():
    with pytest.raises(StructureError, match="empty"):
        Explicit(2, frozenset())
    with pytest.raises(StructureError, match="full"):
        Explicit(1, frozenset([(0,), (1,)]))
    with pytest.raises(StructureError, match="capped"):
        Explicit(21, frozenset([(1,) * 21]))


def test_configuration_validation():
    cfg = Configuration("1011")
    assert cfg.n == 4 and cfg.bits == (1, 0, 1, 1)
    assert str(cfg) == "1011"
    with pytest.raises(StructureError):
        Configuration((0, 2, 1))


def test_series_parallel_majority_sugar():
    assert series(4) == KOutOfN(1, 4)
    assert parallel(4) == KOutOfN(4, 4)
    assert majority(9) == KOutOfN(4, 9)


# -- ground size --------------------------------------------------------------

def test_ground_size_examples():
    assert KOutOfN(2, 3).n == 3
    assert product(parallel(2), series(3)).n == 6
    assert product(product(series(2), parallel(2)), series(5)).n == 20


# -- membership ----------------------------------------------------------------

def test_membership_examples():
    assert membership(KOutOfN(2, 3), (1, 0, 1)) is True
    # block 0 = (1,1) fails the inner parallel pair, block 1 = (0,1) does not;
    # the indicator (1,0) clears the outer 1-of-2
    assert membership(product(parallel(2), series(2)), (1, 1, 0, 1)) is True
    assert membership(Consecutive(2, 4), (1, 0, 1, 0)) is False
    assert membership(Consecutive(2, 4), (0, 1, 1, 0)) is True
    # wrap-around run on the cycle, invisible to the linear variant
    assert membership(Consecutive(2, 4), (1, 0, 0, 1)) is True
    assert membership(Consecutive(2, 4, "linear"), (1, 0, 0, 1)) is False


def test_membership_length_mismatch():
    with pytest.raises(StructureError, match="length"):
        membership(KOutOfN(2, 3), (1, 0))


def test_membership_accepts_configuration_and_string():
    assert membership(KOutOfN(2, 3), Configuration("110"))
    assert membership(KOutOfN(2, 3), "110")


@pytest.mark.parametrize("expr", FIXTURES, ids=lambda e: type(e).__name__ + str(e.n))
def test_batch_matches_scalar_membership(expr):
    table = truth_table(expr)
    assert truth_table(expr) is table and not table.flags.writeable
    for idx, bits in enumerate(itertools.product((0, 1), repeat=expr.n)):
        # enumerate_bits packs coordinate i into bit i of the row index
        packed = sum(b << i for i, b in enumerate(bits))
        assert table[packed] == membership(expr, bits), (idx, bits)


def test_product_membership_decomposes():
    inner, outer = KOutOfN(2, 3), Consecutive(2, 4)
    expr = product(inner, outer)
    r, m = inner.n, outer.n
    for bits in itertools.product((0, 1), repeat=expr.n):
        indicator = tuple(
            int(membership(inner, bits[j * r : (j + 1) * r])) for j in range(m)
        )
        assert membership(expr, bits) == membership(outer, indicator)


def test_product_is_associative():
    a, b, c = series(2), Consecutive(2, 3, "linear"), parallel(2)
    left, right = product(product(a, b), c), product(a, product(b, c))
    assert left == right and hash(left) == hash(right)
    assert left.stages == (a, b, c) and left.n == 12
    assert format_expr(left) == format_expr(right) == (
        "prod(series(2),prod(consec(2,3,linear),parallel(2)))"
    )
    # flat index (j_c n_b + j_b) n_a + i_a, on all three membership paths
    table, batch = truth_table(left), left._contains_batch(enumerate_bits(12))
    for packed, bits in enumerate(itertools.product((0, 1), repeat=12)):
        bits = bits[::-1]  # coordinate i is bit i of the packed index
        first = tuple(int(membership(a, bits[j : j + 2])) for j in range(0, 12, 2))
        second = tuple(int(membership(b, first[j : j + 3])) for j in range(0, 6, 3))
        want = membership(c, second)
        assert membership(left, bits) == table[packed] == batch[packed] == want


# -- monotonicity ---------------------------------------------------------------

@pytest.mark.parametrize("expr", FIXTURES, ids=lambda e: type(e).__name__ + str(e.n))
def test_fixtures_are_monotone(expr):
    assert verify_monotone(expr)


def test_product_of_monotone_is_monotone():
    assert verify_monotone(product(parallel(2), series(2)))


def test_verify_monotone_size_cap():
    with pytest.raises(StructureError, match="spot check"):
        verify_monotone(KOutOfN(10, 21))


def test_spot_check_monotone_large():
    assert spot_check_monotone(parallel_series(2**10), samples=900, seed=3)


class _EvenFailures(KOutOfN):
    """Down when an even number of components fail: not monotone."""

    def _contains_batch(self, x):
        return x.sum(axis=1) % 2 == 0


def test_spot_check_monotone_in_batches():
    # 666 rows of 10^4 values take four batches of at most 2^21 values
    assert spot_check_monotone(series(10**4))
    assert spot_check_monotone(majority(10**4 + 1), seed=5)
    assert not spot_check_monotone(_EvenFailures(1, 10**4))


def test_spot_check_monotone_refuses_rows_past_the_batch():
    with pytest.raises(StructureError, match="n <= 2097152"):
        spot_check_monotone(series(10**11))


@given(
    n=st.integers(2, 8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_upward_closure_is_up_closed(n, data):
    gens = data.draw(
        st.lists(
            st.tuples(*([st.integers(0, 1)] * n)).filter(lambda t: any(t)),
            min_size=1,
            max_size=4,
        )
    )
    closed = upward_closure(n, gens)
    expr = Explicit(n, closed)  # construction re-checks up-closure
    assert verify_monotone(expr)
    for g in gens:
        assert membership(expr, g)
    # nothing beyond what some generator lies below
    assert closed == {
        bits for bits in itertools.product((0, 1), repeat=n)
        if any(all(b >= a for a, b in zip(g, bits)) for g in gens)
    }


@pytest.mark.parametrize("generators", [["111"], ["1"], ["11", "0"]])
def test_upward_closure_rejects_generator_length(generators):
    with pytest.raises(StructureError, match="generator length"):
        upward_closure(2, generators)
    with pytest.raises(StructureError, match="generator length"):
        explicit_from_generators(2, generators)


# -- permutation invariance -------------------------------------------------------

def test_kofn_invariant_under_all_permutations():
    expr = KOutOfN(2, 4)
    for perm in itertools.permutations(range(4)):
        for bits in itertools.product((0, 1), repeat=4):
            permuted = tuple(bits[perm[i]] for i in range(4))
            assert membership(expr, bits) == membership(expr, permuted)


def test_invariance_parallel_series():
    # 3 blocks of 2: swapping inside blocks and cycling the blocks fixes the set
    expr = product(parallel(2), series(3))
    assert verify_invariance(expr, PermutationPair(g=(1, 0), h=(1, 2, 0)))
    assert verify_invariance(expr, PermutationPair(g=(0, 1), h=(0, 1, 2)))


def test_invariance_transpositions():
    expr = product(parallel(2), series(2))
    assert verify_invariance(expr, PermutationPair(g=(1, 0), h=(1, 0)))


def test_invariance_detects_asymmetry():
    lopsided = explicit_from_generators(2, ["10"])  # {10, 11}: coordinate 0 special
    expr = product(lopsided, series(2))
    assert not verify_invariance(expr, PermutationPair(g=(1, 0), h=(0, 1)))


def test_permutation_pair_validation():
    with pytest.raises(StructureError, match="permutation"):
        PermutationPair(g=(0, 0), h=(0, 1))
    with pytest.raises(StructureError, match="shape"):
        verify_invariance(
            product(parallel(2), series(2)), PermutationPair(g=(0, 1, 2), h=(0, 1))
        )


def test_invariance_requires_product():
    with pytest.raises(StructureError, match="product"):
        verify_invariance(KOutOfN(1, 2), PermutationPair(g=(0, 1), h=(0,)))


# -- product layout ----------------------------------------------------------------

def test_product_associativity_same_flat_set():
    a, b, c = series(2), parallel(2), KOutOfN(2, 3)
    left = product(product(a, b), c)
    right = product(a, product(b, c))
    assert left.n == right.n == 12
    assert np.array_equal(truth_table(left), truth_table(right))

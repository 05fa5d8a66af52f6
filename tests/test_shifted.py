from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from descmat.partitions import bernoulli, pk_constant
from oracles import shifted_power_sum


def test_bernoulli_recurrence_holds_on_cached_prefix():
    bernoulli(24)
    for n in range(1, 25):
        assert sum(comb(n + 1, j) * bernoulli(j) for j in range(n + 1)) == 0


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(k) == 0 for k in range(3, 25, 2))


def test_pk_constant_values():
    assert pk_constant(1) == Fraction(-1, 24)
    assert pk_constant(2) == 0
    assert pk_constant(3) == Fraction(7, 960)
    # the order-3 constant is pinned by the degree-0 two-point invariant:
    # (c_3)^2 / (3!)^2 must be 49/33177600
    assert pk_constant(3) ** 2 / 36 == Fraction(49, 33177600)


def test_pk_constant_vanishes_exactly_on_even_orders():
    for k in range(1, 16):
        assert (pk_constant(k) == 0) == (k % 2 == 0)


def test_shifted_power_sum_values():
    assert shifted_power_sum(1, (2, 1)) == Fraction(71, 24)
    # order 3 at (2, 1), term by term:
    # (3/2)^3 - (-1/2)^3 + (-1/2)^3 - (-3/2)^3 = 27/8 + 1/8 - 1/8 + 27/8
    direct = (
        Fraction(3, 2) ** 3
        - Fraction(-1, 2) ** 3
        + Fraction(-1, 2) ** 3
        - Fraction(-3, 2) ** 3
        + pk_constant(3)
    )
    assert direct == Fraction(6487, 960)
    assert shifted_power_sum(3, (2, 1)) == direct


def test_empty_partition_gives_the_constant():
    for k in range(1, 10):
        assert shifted_power_sum(k, ()) == pk_constant(k)


@given(
    st.integers(min_value=1, max_value=9),
    st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=8),
)
def test_order_one_is_size_minus_a_24th(_, parts):
    lam = tuple(sorted(parts, reverse=True))
    assert shifted_power_sum(1, lam) == sum(lam) - Fraction(1, 24)


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=1, max_value=10), min_size=0, max_size=6),
)
def test_zero_padding_is_invisible(k, parts):
    lam = tuple(sorted(parts, reverse=True))
    padded = lam + (0,) * 5
    assert shifted_power_sum(k, lam) == shifted_power_sum(k, padded)


def test_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        shifted_power_sum(0, (1,))
    with pytest.raises(ValueError):
        pk_constant(0)

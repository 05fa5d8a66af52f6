import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from descmat.partitions import partition_count
from descmat.qseries import (
    QSeries,
    discriminant,
    eisenstein_series,
    euler_function,
    fraction_str,
    inverse_euler,
    sigma,
)
from descmat.quasimodular import EisensteinMonomial, monomial_series


def geometric(order):
    return QSeries([1] * (order + 1))


def test_geometric_times_one_minus_q_is_one():
    assert QSeries([1, -1], order=10) * geometric(10) == QSeries([1], order=10)


def test_pow_and_scale():
    assert QSeries([1, 1], order=2) ** 2 == QSeries([1, 2, 1])
    assert (24 * eisenstein_series(2, 5))[0] == -1


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        QSeries([1, 1]) ** -1


def test_mixed_orders_truncate_to_minimum():
    a = QSeries([1, 2, 3, 4], order=3)
    b = QSeries([1, 1], order=1)
    assert (a + b).order == 1
    assert (a * b).order == 1


small_series = st.builds(
    QSeries,
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=6,
        max_size=6,
    ),
)


@settings(max_examples=40)
@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


@settings(max_examples=40)
@given(small_series, small_series)
def test_product_is_the_schoolbook_convolution(a, b):
    expected = [
        sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0)) for m in range(a.order + 1)
    ]
    assert (a * b).coeffs == tuple(expected)


def test_euler_function_low_order():
    assert euler_function(7) == QSeries([1, -1, -1, 0, 0, 1, 0, 1])


def test_euler_function_matches_product_expansion():
    order = 30
    prod = QSeries([1], order=order)
    for n in range(1, order + 1):
        prod = prod * QSeries([1] + [0] * (n - 1) + [-1], order=order)
    assert euler_function(order) == prod
    assert euler_function(order)[12] == -1


def test_inverse_euler_is_partition_series():
    inv = inverse_euler(12)
    assert inv.coeffs[:5] == (1, 1, 2, 3, 5)
    assert inv[12] == 77 == partition_count(12)
    assert euler_function(12) * inv == QSeries([1], order=12)


def test_eisenstein_constants_and_low_coefficients():
    assert eisenstein_series(2, 4) == QSeries([Fraction(-1, 24), 1, 3, 4, 7])
    assert eisenstein_series(4, 0)[0] == Fraction(1, 240)
    assert eisenstein_series(6, 0)[0] == Fraction(-1, 504)
    for k in (2, 4, 6, 8, 10, 12):
        from descmat.partitions import bernoulli

        assert eisenstein_series(k, 1)[0] == -bernoulli(k) / (2 * k)


def test_eisenstein_rejects_bad_weight():
    for bad in (0, -2, 3):
        with pytest.raises(ValueError):
            eisenstein_series(bad, 5)
    for order in (-1, -3):
        with pytest.raises(ValueError):
            eisenstein_series(4, order)
    with pytest.raises(ValueError):
        monomial_series(EisensteinMonomial(0, 1, 1), -2)


def test_sigma_is_a_divisor_sum():
    for n in range(1, 40):
        for power in (1, 3, 5):
            assert sigma(n, power) == sum(
                d**power for d in range(1, n + 1) if n % d == 0
            )


def test_discriminant_coefficients():
    delta = discriminant(6)
    assert delta.coeffs == (0, 1, -24, 252, -1472, 4830, -6048)
    # multiplicativity at (2, 3), visible already in these coefficients
    assert delta[6] == delta[2] * delta[3]


def test_discriminant_two_routes_agree_to_order_fifty():
    delta = discriminant(50)
    e4 = eisenstein_series(4, 50)
    e6 = eisenstein_series(6, 50)
    assert delta == 8000 * e4**3 - 147 * e6**2
    assert delta == (euler_function(50) ** 24).qshift()


def test_json_round_trip():
    series = eisenstein_series(2, 8)
    payload = json.loads(json.dumps(series.to_json()))
    assert QSeries.from_json(payload) == series
    assert payload["coeffs"][0] == "-1/24"
    assert payload["coeffs"][1] == "1"


def test_from_json_refuses_a_coefficient_count_that_is_not_the_order():
    for payload in ({"order": 5, "coeffs": ["1", "2"]}, {"order": 0, "coeffs": ["1", "2", "3"]}):
        with pytest.raises(ValueError):
            QSeries.from_json(payload)


@settings(max_examples=60)
@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=1, max_size=8),
    st.integers(min_value=-30, max_value=30).filter(bool),
)
def test_integers_over_one_denominator_are_canonical(cs, m):
    series = QSeries(cs)
    common = lcm(*(c.denominator for c in cs))
    ints = [m * c.numerator * (common // c.denominator) for c in cs]
    scaled = QSeries(ints, den=m * common)
    assert scaled == series and hash(scaled) == hash(series)
    assert scaled.nums == series.nums and scaled.den == series.den
    assert series.den > 0 and gcd(series.den, *series.nums) == 1
    assert series.coeffs == tuple(cs)


def test_truncate_and_qshift_reduce_again():
    assert QSeries([1, Fraction(1, 2)]).truncate(0).den == 1
    assert QSeries([1, Fraction(1, 2)]).qshift().den == 1
    assert QSeries([2, 4], den=6) == QSeries([Fraction(1, 3), Fraction(2, 3)])


def test_fraction_str_forms():
    assert fraction_str(Fraction(-3, 4)) == "-3/4"
    assert fraction_str(Fraction(8, 2)) == "4"


def test_str_mimics_transcript_shape():
    from descmat.descendents import bracket_series

    assert (
        str(bracket_series((2, 2), 3))
        == "248437/17280*q^3 + 15703/23040*q^2 + 127/69120*q + 49/33177600"
    )
    assert str(QSeries([0], order=3)) == "0"


def test_coefficient_access_guards():
    series = QSeries([1, 2], order=1)
    with pytest.raises(IndexError):
        series[2]
    with pytest.raises(ZeroDivisionError):
        QSeries([1, 2], den=0)
    with pytest.raises(ValueError):
        series.truncate(5)
    for order in (-1, -2):
        with pytest.raises(ValueError):
            QSeries([1, 2, 3, 4]).truncate(order)

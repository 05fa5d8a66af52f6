from fractions import Fraction

import pytest

from descmat import qseries
from descmat.descendents import bracket_series
from descmat.linalg import (
    InconsistentSystemError,
    SingularSystemError,
    _primitive,
    int_row_rank,
)
from descmat.matroid import descendent_labels, descendent_matrix
from descmat.partitions import bernoulli
from descmat.qseries import (
    QSeries,
    convolve,
    discriminant,
    eisenstein_series,
    euler_function,
    sigma,
)
from descmat.quasimodular import (
    EisensteinMonomial,
    InsufficientOrderError,
    _monomial_columns,
    base_order,
    eisenstein_monomials,
    expand_in_eisenstein,
    monomial_series,
    qm_dimension,
)
from oracles import partition_sum, solve_exact


def test_dimensions():
    assert qm_dimension(12) == 7
    assert qm_dimension(8) == 4
    assert qm_dimension(2) == 1
    assert qm_dimension(0) == 1
    with pytest.raises(ValueError):
        qm_dimension(5)


def test_monomial_count_matches_dimension():
    for k in range(2, 22, 2):
        assert len(eisenstein_monomials(k)) == qm_dimension(k)


def test_monomial_orders_match_printed_rows():
    assert [m.weight_tuple() for m in eisenstein_monomials(4)] == [(4,), (2, 2)]
    assert [m.weight_tuple() for m in eisenstein_monomials(6)] == [
        (6,),
        (4, 2),
        (2, 2, 2),
    ]
    assert [m.weight_tuple() for m in eisenstein_monomials(8)] == [
        (6, 2),
        (4, 4),
        (4, 2, 2),
        (2, 2, 2, 2),
    ]
    assert all(m.weight == 8 for m in eisenstein_monomials(8))


def test_monomial_series_multiplies_out():
    for k in range(2, 20, 2):
        for mono in eisenstein_monomials(k):
            expected = QSeries([1], order=30)
            for w in mono.weight_tuple():
                expected = expected * eisenstein_series(w, 30)
            assert monomial_series(mono, 30) == expected, mono


def test_monomials_share_their_lower_monomials(monkeypatch):
    # each monomial is its heaviest generator times the memoized monomial
    # without it, so a cold weight-18 block takes one product per monomial
    # on those chains that is not a lone generator: 33, where multiplying
    # each one out from its generators took 57
    products = []

    def counted(a, b):
        products.append((a, b))
        return convolve(a, b)

    monkeypatch.setattr(qseries, "convolve", counted)
    monomial_series.cache_clear()
    _monomial_columns.cache_clear()
    _monomial_columns(18, 64)
    assert len(products) == 33


def test_discriminant_expansion():
    coeffs = expand_in_eisenstein(discriminant(15), 12)
    expected = {m: Fraction(0) for m in eisenstein_monomials(12)}
    expected[EisensteinMonomial(0, 0, 2)] = Fraction(-147)
    expected[EisensteinMonomial(0, 3, 0)] = Fraction(8000)
    assert dict(zip(eisenstein_monomials(12), coeffs)) == expected


def test_basis_element_expands_to_unit_vector():
    e2 = eisenstein_series(2, 10)
    assert expand_in_eisenstein(e2 * e2, 4) == (0, 1)


def test_expand_then_reconstruct_is_identity_on_monomials():
    for k in range(2, 14, 2):
        order = base_order(k)
        for mono in eisenstein_monomials(k):
            coords = expand_in_eisenstein(monomial_series(mono, order), k)
            expected = tuple(
                Fraction(1 if m == mono else 0) for m in eisenstein_monomials(k)
            )
            assert coords == expected


def test_leading_blocks_nonsingular_up_to_weight_eighteen():
    for k in range(2, 20, 2):
        dim = qm_dimension(k)
        rows = []
        for i in range(dim):
            row = [monomial_series(m, dim - 1)[i] for m in eisenstein_monomials(k)]
            ints, scale = _primitive(row)
            assert scale > 0 and [scale * x for x in ints] == row
            rows.append(ints)
        assert int_row_rank(rows) == dim


def test_insufficient_order_is_rejected():
    with pytest.raises(InsufficientOrderError):
        expand_in_eisenstein(eisenstein_series(4, 3), 4)


def test_series_of_wrong_weight_is_inconsistent():
    with pytest.raises(InconsistentSystemError):
        expand_in_eisenstein(discriminant(15), 10)


def test_dependent_columns_surface_as_singular():
    # duplicate column via a synthetic two-column solve at weight 4
    e4 = eisenstein_series(4, 9)
    with pytest.raises(SingularSystemError):
        solve_exact([e4.coeffs, e4.coeffs], discriminant(9).coeffs)


def monomial_numerators(mono, order):
    """(N, s): the monomial as the integer series N over s, by an integer loop.

    N is the product of the integer series s_w·E_w (24·E2, 240·E4 and
    504·E6, s_w being the denominator of E_w's constant term), one factor
    per generator power, and s the product of their scales.
    """
    nums, scale = None, 1
    for weight, exponent in ((6, mono.c), (4, mono.b), (2, mono.a)):
        const = -bernoulli(weight) / (2 * weight)
        s = const.denominator
        gen = [const.numerator] + [s * sigma(n, weight - 1) for n in range(1, order + 1)]
        for _ in range(exponent):
            nums, scale = list(gen) if nums is None else convolve(nums, gen), scale * s
    return nums or [1] + [0] * order, scale


def test_monomial_columns_match_the_integer_loop():
    # the columns are read off products of QSeries in lowest terms; each
    # generator's constant numerator is ±1, so their den is the scales' product
    for k in range(2, 19, 2):
        for order in (base_order(k), 4 * base_order(k)):
            columns, scales = _monomial_columns(k, order)
            expected = [monomial_numerators(m, order) for m in eisenstein_monomials(k)]
            assert [list(col) for col in columns] == [nums for nums, _ in expected], (k, order)
            assert list(scales) == [s for _, s in expected], (k, order)


def monomial_columns(k, order):
    return [monomial_series(m, order).coeffs for m in eisenstein_monomials(k)]


def test_factored_solve_matches_solve_exact_on_every_label_to_weight_eighteen():
    # the oracle: Fraction partition sums, the product with (q)_inf, and an
    # unfactored solve over the monomials' series
    for k in range(2, 19, 2):
        order = base_order(k)
        columns = monomial_columns(k, order)
        oracle = {}
        for label in descendent_labels(k):
            inner = QSeries([partition_sum(label, d) for d in range(order + 1)])
            bracket = euler_function(order) * inner
            oracle[label] = tuple(solve_exact(columns, bracket.coeffs))
            assert expand_in_eisenstein(bracket, k) == oracle[label], label
        for positive in (False, True):
            m = descendent_matrix(k, positive=positive)
            assert m.columns == tuple(oracle[label] for label in m.labels), (k, positive)


def test_factored_solve_matches_solve_exact_above_the_base_order():
    series = bracket_series((6, 2), 30)
    assert expand_in_eisenstein(series, 12) == tuple(solve_exact(monomial_columns(12, 30), series.coeffs))


def test_wrong_weight_above_the_base_order_is_inconsistent():
    with pytest.raises(InconsistentSystemError):
        expand_in_eisenstein(discriminant(30), 10)
    # a weight-12 form spoiled in its last coefficient only: the first 30
    # rows are consistent, so only the last row past the pivots can see it
    spoiled = bracket_series((6, 2), 30) + QSeries([0] * 30 + [1])
    for solve in (
        lambda: expand_in_eisenstein(spoiled, 12),
        lambda: solve_exact(monomial_columns(12, 30), spoiled.coeffs),
    ):
        with pytest.raises(InconsistentSystemError):
            solve()

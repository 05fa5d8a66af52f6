import sys
from fractions import Fraction

import pytest

from descmat import descendents, quasimodular
from descmat.descendents import (
    _form_reaching,
    _label_scale,
    _partition_total,
    as_label,
    bracket_series,
    eisenstein_coordinates,
    gw_invariant,
    to_eisenstein,
    weight,
)
from descmat.decomposition import all_positive_decompositions, tau_niebur, tau_pentagonal
from descmat.matroid import descendent_labels, descendent_matrix
from descmat.partitions import partition_count, partitions_of
from descmat.qseries import QSeries, eisenstein_series, euler_function, inverse_euler
from descmat.quasimodular import (
    base_order,
    eisenstein_monomials,
    monomial_series,
    qm_dimension,
)
from oracles import gw_character_oracle, partition_sum


def test_weight_examples():
    assert weight((2, 2)) == 8
    assert weight((10,)) == 12
    assert weight(()) == 0


def test_label_canonicalization():
    assert as_label([0, 2, 1]) == (2, 1, 0)
    with pytest.raises(ValueError):
        as_label([2, -1])


def test_gw_published_values():
    assert gw_invariant((2, 2), 3) == Fraction(166577809, 11059200)
    assert gw_invariant((2, 2), 0) == Fraction(49, 33177600)


def test_single_tau_zero_closed_form():
    # <tau_0>_d = p(d) (d - 1/24), the point case of the divisor equation; the
    # degrees cross every doubling boundary of the read up to the CLI degree cap
    for d in range(501):
        assert gw_invariant((0,), d) == partition_count(d) * (d - Fraction(1, 24))
    assert gw_invariant((0,), 2) == Fraction(47, 12)


def test_empty_label_degenerates_to_partition_numbers():
    for d in range(21):
        assert gw_invariant((), d) == partition_sum((), d) == partition_count(d)
    assert bracket_series((), 10) == QSeries([1], order=10)


def test_bracket_series_published_expansion():
    assert bracket_series((2, 2), 3) == QSeries(
        [
            Fraction(49, 33177600),
            Fraction(127, 69120),
            Fraction(15703, 23040),
            Fraction(248437, 17280),
        ]
    )


def test_a_zero_insertion_is_the_divisor_operator():
    # <tau_0(pt) prod>_d = (d - 1/24) <prod>_d, so the bracket series of
    # label + (0,) is q dB/dq + E2 B with B the label's: an independent
    # check of the factor (24d - 1)^zeros in the partition totals
    e2 = eisenstein_series(2, 30)
    labels = [()] + [label for k in range(2, 13, 2) for label in descendent_labels(k)]
    assert len(labels) == 48
    for label in labels:
        b = bracket_series(label, 30)
        q_derivative = QSeries([n * x for n, x in enumerate(b.nums)], den=b.den)
        assert bracket_series(label + (0,), 30) == q_derivative + e2 * b, label


def test_tau_zero_bracket_is_the_weight_two_eisenstein_series():
    assert bracket_series((0,), 20) == eisenstein_series(2, 20)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_zero_insertions_partition_function_identity(n):
    # 24^n <tau_0^n> = (q)inf sum (24d - 1)^n p(d) q^d, checked at order 12
    order = 12
    lhs = 24**n * bracket_series((0,) * n, order)
    rhs = euler_function(order) * QSeries(
        [(24 * d - 1) ** n * partition_count(d) for d in range(order + 1)]
    )
    assert lhs == rhs


def test_weight_four_expansions():
    assert to_eisenstein((2,)) == {
        eisenstein_monomials(4)[0]: Fraction(1, 12),
        eisenstein_monomials(4)[1]: Fraction(1, 2),
    }
    assert to_eisenstein((0, 0)) == {
        eisenstein_monomials(4)[0]: Fraction(5, 6),
        eisenstein_monomials(4)[1]: Fraction(-1),
    }


def test_weight_six_expansions():
    e6, e4e2, e2cubed = eisenstein_monomials(6)
    expected = {
        (4,): (Fraction(1, 360), Fraction(1, 12), Fraction(1, 6)),
        (2, 0): (Fraction(7, 120), Fraction(1, 4), Fraction(-3, 2)),
        (1, 1): (Fraction(7, 180), Fraction(2, 3), Fraction(-8, 3)),
        (0, 0, 0): (Fraction(7, 12), Fraction(-15, 2), Fraction(3)),
    }
    for label, (a, b, c) in expected.items():
        assert to_eisenstein(label) == {e6: a, e4e2: b, e2cubed: c}


def test_weight_eight_two_point_expansion():
    expansion = {
        mono.weight_tuple(): coeff for mono, coeff in to_eisenstein((2, 2)).items()
    }
    assert expansion == {
        (6, 2): Fraction(1, 12),
        (4, 4): Fraction(73, 112),
        (4, 2, 2): Fraction(-3, 4),
        (2, 2, 2, 2): Fraction(-15, 4),
    }


@pytest.mark.parametrize("label", [(2,), (0, 0), (4,), (1, 1), (2, 2), (6,)])
def test_round_trip_reproduces_bracket_series(label):
    k = weight(label)
    order = 2 * qm_dimension(k)
    coords = eisenstein_coordinates(label)
    rebuilt = QSeries([0], order=order)
    for mono, coeff in zip(eisenstein_monomials(k), coords):
        if coeff:
            rebuilt = rebuilt + coeff * monomial_series(mono, order)
    assert rebuilt == bracket_series(label, order)


def test_empty_label_has_no_expansion():
    with pytest.raises(ValueError):
        to_eisenstein(())


def test_oracle_equivalence_spot_checks():
    for label in ((3, 1), (2, 1, 1), (4, 0), (0, 0, 0)):
        for d in range(6):
            assert gw_invariant(label, d) == gw_character_oracle(label, d)


@pytest.mark.parametrize("label", [(2, 2), (6, 2), (4, 4, 2), (5, 3, 2)])
def test_lift_matches_partition_sum_through_degree_thirty(label):
    assert base_order(weight(label)) < 30
    for d in range(31):
        assert gw_invariant(label, d) == partition_sum(label, d), d


def test_lift_matches_partition_sum_above_every_base_to_weight_twelve():
    for k in range(4, 13, 2):
        for label in descendent_labels(k):
            base = base_order(k)
            for d in range(base + 1, base + 7):
                assert gw_invariant(label, d) == partition_sum(label, d), (label, d)


def test_bracket_series_above_the_base_is_the_lifted_form():
    label, order = (6, 2), 30
    form = QSeries([0], order=order)
    for mono, coeff in zip(eisenstein_monomials(12), eisenstein_coordinates(label)):
        form = form + coeff * monomial_series(mono, order)
    assert bracket_series(label, order) == form


def test_integer_lift_matches_the_series_lift_for_weights_four_to_fourteen():
    # the series route: 1/(q)_inf times sum_i c_i M_i in QSeries arithmetic;
    # degrees to 4 base(k) are read at orders base(k), 2 base(k) and 4 base(k)
    for k in range(4, 15, 2):
        order = 4 * base_order(k)
        for label in descendent_labels(k):
            form = QSeries([0], order=order)
            for mono, coeff in zip(eisenstein_monomials(k), eisenstein_coordinates(label)):
                if coeff:
                    form = form + coeff * monomial_series(mono, order)
            lifted = (inverse_euler(order) * form).coeffs
            assert tuple(gw_invariant(label, d) for d in range(order + 1)) == lifted, label


def test_pentagonal_bracket_matches_the_euler_product():
    # the bracket's signed pentagonal sums against (q)_inf times the invariants
    for label in ((), (0,), (2, 2), (3, 1), (6, 2), (4, 3, 1), (2, 1)):
        k = weight(label) - weight(label) % 2
        order = 4 * base_order(k)
        inner = QSeries([gw_invariant(label, d) for d in range(order + 1)])
        assert bracket_series(label, order) == euler_function(order) * inner, label


@pytest.mark.parametrize("label", [(2, 2), (6,), (4, 2), (3, 1, 0), (10,), (2, 2, 2), (6, 4)])
def test_bracket_coefficient_matches_the_partition_sum_oracle(label):
    # a degree d above base(k) is read at the least base(k)·2^j >= d, so these
    # degrees sit on both sides of the lift's first two doubling boundaries
    k = weight(label)
    assert 8 <= k <= 14
    base = base_order(k)
    order = 2 * base + 1
    oracle = euler_function(order) * QSeries([partition_sum(label, d) for d in range(order + 1)])
    for d in (0, 1, base, base + 1, 2 * base, 2 * base + 1):
        assert _form_reaching(label, d)[d] == oracle[d], d


def test_bracket_coefficient_of_the_empty_and_an_odd_weight_label():
    assert [_form_reaching((), d)[d] for d in range(14)] == [1] + [0] * 13
    assert weight((2, 1)) % 2
    assert [_form_reaching((2, 1), d)[d] for d in range(30)] == [0] * 30
    # a negative order or degree is refused for every kind of label
    for label in ((), (2, 1), (2, 2), (0,)):
        with pytest.raises(ValueError):
            bracket_series(label, -1)
        with pytest.raises(ValueError):
            _form_reaching(label, -1)
        with pytest.raises(ValueError):
            gw_invariant(label, -1)


@pytest.mark.parametrize("label", [(1,), (3,), (2, 1), (0, 1), (3, 2, 2)])
def test_odd_weight_invariants_vanish(label):
    assert weight(label) % 2
    for d in range(21):
        assert gw_invariant(label, d) == 0 == partition_sum(label, d), d


def clear_build_memos():
    """Empty every memo the descendent and quasimodular modules hold or import.

    ``descendents._last_boxes``, the parent of each partition that the
    power-sum rows are built from, is among them.
    """
    for module in (descendents, quasimodular):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def labels_of_weight(k):
    """Every label of weight k, odd weights and the empty label included."""
    return [tuple(part - 2 for part in lam) for lam in partitions_of(k) if not lam or lam[-1] >= 2]


def test_integer_kernel_matches_the_fraction_partition_sum():
    # A kernel that drops the constant c_j, or leaves one N_j out of the
    # final division, fails this on its first nonempty label, (0,).  Every
    # label with a 0 is here too: its 0s are the factor (24d - 1)^zeros.
    # The empty label has no totals; its invariants are read from its form.
    for d in range(base_order(0) + 1):
        assert gw_invariant((), d) == partition_sum((), d), d
    for k in range(1, 17):
        for label in labels_of_weight(k):
            scale = _label_scale(label)
            for d in range(base_order(k - k % 2) + 1):
                total = Fraction(_partition_total(label, d), scale)
                assert total == partition_sum(label, d), (label, d)


def test_a_cold_weight_twelve_build_reads_no_order_one_power_sums(monkeypatch):
    clear_build_memos()
    orders = set()
    real = descendents._scaled_power_sums

    def recorded(j, d):
        orders.add(j)
        return real(j, d)

    monkeypatch.setattr(descendents, "_scaled_power_sums", recorded)
    assert descendent_matrix(12).rank() == qm_dimension(12)
    # a label's 0s are the factor (24d - 1)^zeros, never a row of N_1 p_1(lam)
    assert orders and 1 not in orders


def forbidden(name):
    def fail(*args, **kwargs):
        raise RuntimeError(f"{name} ran")

    return fail


def forbid_everywhere(monkeypatch, names):
    """Make every descmat module's binding of each name raise when called."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "descmat":
            continue
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))


def test_cold_matrix_build_takes_the_integer_routes(monkeypatch):
    clear_build_memos()
    forbid_everywhere(monkeypatch, ("solve_exact", "_bracket_series", "gw_invariant"))
    # coordinates run from integer partition totals to one Fraction each, and
    # the monomial columns are read off the series' integers: no rational view
    monkeypatch.setattr(QSeries, "coeffs", property(forbidden("the rational view")))
    assert descendent_matrix(16).rank() == qm_dimension(16)


def test_invariants_at_and_below_the_base_read_the_form(monkeypatch):
    # once a label's coordinates are solved, no read needs the partition totals
    labels = [(2,), (2, 0), (3, 1), (4, 2), (6, 2), (6, 4)]
    clear_build_memos()
    for label in labels:
        eisenstein_coordinates(label)
    forbid_everywhere(monkeypatch, ("_partition_total", "_scaled_power_sums"))
    for label in labels + [(), (2, 1)]:
        k = weight(label)
        for d in range(base_order(k - k % 2) + 1):
            assert gw_invariant(label, d) == partition_sum(label, d), (label, d)


def test_bracket_series_and_tau_read_the_form_alone(monkeypatch):
    rows = all_positive_decompositions(12)
    clear_build_memos()
    forbid_everywhere(monkeypatch, ("gw_invariant",))
    for d in range(25, 33):
        expected = tau_niebur(d)
        for key, dec in rows:
            assert tau_pentagonal(d, dec) == expected, (key, d)
    # weight 12's columns at base(12) = 12 for the coordinates, and at 48 for degrees 25..32
    assert quasimodular._monomial_columns.cache_info().currsize == 2
    # one (F[d], D) read per label and degree, shared by the 36 rows: 9 labels x 8 degrees
    assert len({label for _, dec in rows for label in dec.basis}) == 9
    assert descendents._degree_reads.cache_info().currsize == 72
    for label in ((), (2, 1), (2, 2), (6, 4), (4, 4, 2)):
        k = weight(label) - weight(label) % 2
        bracket_series(label, 3 * base_order(k))

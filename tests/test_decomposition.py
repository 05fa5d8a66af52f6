import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from golden_delta_tables import POLY_ROWS
from descmat import decomposition, descendents
from descmat.decomposition import (
    GENERATOR_TRIPLES,
    LinearDecomposition,
    PolynomialDecomposition,
    TauCheck,
    TauReport,
    _basis_decompositions,
    all_positive_decompositions,
    basis_key,
    poly_basis_expand,
    solve_linear,
    tau_direct,
    tau_niebur,
    tau_pentagonal,
    tau_relation_report,
)
from descmat.descendents import bracket_series, eisenstein_coordinates, gw_invariant
from descmat.linalg import InconsistentSystemError, SingularSystemError, factor_columns
from descmat.matroid import descendent_labels, descendent_matrix
from descmat.partitions import _bounded_partitions, pentagonal_pairs
from descmat.qseries import QSeries, discriminant, eisenstein_series
from descmat.quasimodular import (
    InsufficientOrderError,
    base_order,
    expand_in_eisenstein,
    qm_dimension,
)
from oracles import solve_exact


def test_first_basis_row():
    ground = descendent_labels(12, positive=True)
    dec = solve_linear(ground[:7], discriminant(24), 12)
    assert dec.coefficients[0] == Fraction(-23011579448, 8209)
    assert dec.scale == 8209
    assert dec.scaled_coefficients == (
        -23011579448,
        90651811166,
        -84309768312,
        -83720227146,
        93735530480,
        -944663370,
        550191978,
    )


def test_scale_is_least_common_denominator():
    ground = descendent_labels(12, positive=True)
    dec = solve_linear(ground[:7], discriminant(24), 12)
    for coeff in dec.coefficients:
        assert (coeff * dec.scale).denominator == 1
    from math import lcm

    assert dec.scale == lcm(*(c.denominator for c in dec.coefficients))


def test_dependent_basis_is_rejected():
    m8 = descendent_matrix(8)
    dependent = [(4, 0), (2, 0, 0), (1, 1, 0), (0, 0, 0, 0)]
    assert not m8.is_independent(dependent)
    target = 2 * bracket_series((6,), 20)
    with pytest.raises(SingularSystemError):
        solve_linear(dependent, target, 8)


def test_solve_linear_input_validation():
    ground = descendent_labels(12, positive=True)
    with pytest.raises(ValueError):
        solve_linear(ground[:6], discriminant(24), 12)
    with pytest.raises(ValueError):
        solve_linear(ground[:6] + ((2,),), discriminant(24), 12)
    with pytest.raises(InsufficientOrderError):
        solve_linear(ground[:7], discriminant(10), 12)
    # a weight-10 form is no weight-12 target
    with pytest.raises(InconsistentSystemError):
        solve_linear(ground[:7], bracket_series((8,), 24), 12)


def test_positive_ground_set_and_keys():
    ground = descendent_labels(12, positive=True)
    assert len(ground) == 9
    assert basis_key((2, 4, 5, 6, 7, 8, 9)) == "(2456789)"


def test_all_positive_decompositions_count_and_order():
    rows = all_positive_decompositions(12)
    assert len(rows) == 36
    keys = [key for key, _ in rows]
    expected = [
        basis_key(idxs) for idxs in combinations(range(1, 10), 7)
    ]
    assert keys == expected
    with pytest.raises(ValueError):
        all_positive_decompositions(10)


def test_scaled_coefficients_refuse_a_scale_that_leaves_a_fraction():
    dec = LinearDecomposition(((4,), (2, 2)), (Fraction(1, 2), Fraction(-5, 3)), 2)
    with pytest.raises(ValueError, match="-5/3"):
        dec.scaled_coefficients
    assert dec._replace(scale=6).scaled_coefficients == (3, -10)


def solve_on(labels, target):
    """The oracle row: the one-off solve over the labels' coordinates, over its lcm."""
    x = tuple(solve_exact([eisenstein_coordinates(lab) for lab in labels], target))
    return LinearDecomposition(tuple(labels), x, lcm(*(c.denominator for c in x)))


def assert_same_decomposition(dec, oracle):
    assert dec.basis == oracle.basis
    assert dec.coefficients == oracle.coefficients
    assert all(type(c) is Fraction for c in dec.coefficients)
    assert dec.scale == oracle.scale and type(dec.scale) is int


def test_every_positive_row_equals_the_solve_on_its_basis():
    ground = descendent_labels(12, positive=True)
    target = expand_in_eisenstein(discriminant(base_order(12)), 12)
    for key, dec in all_positive_decompositions(12):
        assert dec.basis == tuple(ground[int(i) - 1] for i in key.strip("()")), key
        assert_same_decomposition(dec, solve_on(dec.basis, target))


def test_kernel_route_equals_the_solve_on_every_full_weight_ten_basis():
    # n - r = 7 here, against 2 for the positive weight-12 table
    m = descendent_matrix(10)
    assert (len(m), m.rank()) == (12, 5)
    rng = random.Random(10)
    target = tuple(
        Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(qm_dimension(10))
    )
    rows = list(_basis_decompositions(m, target))
    assert [dec.basis for _, dec in rows] == list(m.bases())
    assert len(rows) == m.bases_count() == 730
    for idxs, dec in rows:
        assert tuple(m.labels[i] for i in idxs) == dec.basis
        assert_same_decomposition(dec, solve_on(dec.basis, target))


def test_kernel_route_checks_the_target_on_a_restriction_of_lower_rank():
    # rank 3 < 7 rows, so the first basis's factored columns keep four
    # annihilator rows, and they alone decide whether the target is in the span
    four = ((5, 1, 0), (3, 3, 0), (3, 1, 0, 0), (2, 1, 1, 0))
    rng = random.Random(12)
    for labels, nbases in ((four[:3], 1), (four, 4)):
        m = descendent_matrix(12).restrict(labels)
        assert (m.rank(), m.nrows, m.bases_count()) == (3, 7, nbases)
        with pytest.raises(InconsistentSystemError):
            next(_basis_decompositions(m, eisenstein_coordinates((10,))))
        a, b = (m.columns[i] for i in rng.sample(range(len(m)), 2))
        u, v = rng.choice([-7, -2, 3, 5]), rng.choice([-3, 2, 9])
        target = tuple(u * x + v * y for x, y in zip(a, b))
        rows = list(_basis_decompositions(m, target))
        assert [dec.basis for _, dec in rows] == list(m.bases())
        for _, dec in rows:
            assert_same_decomposition(dec, solve_on(dec.basis, target))


def test_the_positive_table_makes_one_exact_solve(monkeypatch):
    calls = []

    def counting_factor(columns, scales):
        calls.append(len(columns))
        return factor_columns(columns, scales)

    monkeypatch.setattr(decomposition, "factor_columns", counting_factor)
    assert len(all_positive_decompositions(12)) == 36
    assert calls == [7]


def test_kernel_route_refuses_a_dependent_set(monkeypatch):
    m8 = descendent_matrix(8)
    dependent = ((4, 0), (2, 0, 0), (1, 1, 0), (0, 0, 0, 0))
    first = next(m8.bases())
    monkeypatch.setattr(m8, "bases", lambda: iter([first, dependent]))
    rows = _basis_decompositions(m8, eisenstein_coordinates((6,)))
    assert next(rows)[1].basis == first
    with pytest.raises(SingularSystemError):
        next(rows)


def test_decompositions_rebuild_the_discriminant_series():
    # The q-series oracle of the coordinate-space solve: every row's
    # combination of bracket series is the discriminant itself.
    order = 24
    for key, dec in all_positive_decompositions(12):
        total = QSeries([0], order=order)
        for label, coeff in zip(dec.basis, dec.coefficients):
            total = total + coeff * bracket_series(label, order)
        assert total == discriminant(order), key


def test_decompositions_share_tau_values():
    rows = all_positive_decompositions(12)
    for d in (1, 2, 6):
        values = {tau_pentagonal(d, dec) for _, dec in rows}
        assert len(values) == 1


def test_poly_expand_weight_four_example():
    pd = poly_basis_expand(1, eisenstein_series(4, base_order(4)), 4)
    assert pd.terms_dict() == {
        (0, 1, 0): Fraction(6, 5),
        (2, 0, 0): Fraction(6, 5),
    }
    assert pd.factor_form() == [
        (((0, 0),), Fraction(6, 5)),
        (((0,), (0,)), Fraction(6, 5)),
    ]


@pytest.mark.parametrize("triple_type", sorted(GENERATOR_TRIPLES))
def test_poly_expand_reconstructs_the_discriminant(triple_type):
    pd = poly_basis_expand(triple_type, discriminant(base_order(12)), 12)
    assert pd.reconstruct(19) == discriminant(19)
    assert all(c.denominator == 1 for _, c in pd.terms)


def test_poly_expand_golden_row_one():
    pd = poly_basis_expand(1, discriminant(base_order(12)), 12)
    assert {e: int(c) for e, c in pd.terms} == POLY_ROWS[1]


def test_poly_expand_validation():
    with pytest.raises(ValueError):
        poly_basis_expand(9, discriminant(base_order(12)), 12)
    with pytest.raises(ValueError):
        poly_basis_expand(1, discriminant(6), 12)


@pytest.mark.parametrize("triple_type", sorted(GENERATOR_TRIPLES))
def test_poly_expand_solves_any_weight_twelve_target(triple_type):
    for label in ((10,), (4, 1, 1)):
        target = bracket_series(label, base_order(12))
        pd = poly_basis_expand(triple_type, target, 12)
        assert pd.reconstruct(24) == bracket_series(label, 24), label


def test_poly_expand_target_contract():
    # a weight-10 form is no weight-12 target
    with pytest.raises(InconsistentSystemError):
        poly_basis_expand(1, bracket_series((8,), 24), 12)
    with pytest.raises(InsufficientOrderError):
        poly_basis_expand(1, discriminant(6), 12)


def test_tau_niebur_values():
    assert tau_niebur(1) == 1
    assert tau_niebur(2) == -24
    assert tau_niebur(3) == 252
    # n = 3 by hand: 81*4 - 24*(1*41*1*3 + 4*(-10)*3*1) = 324 - 24*3
    assert 3**4 * 4 - 24 * (41 * 3 + 4 * (-10) * 3) == 252


def test_tau_direct_matches_niebur():
    for d in range(1, 16):
        assert tau_direct(d) == tau_niebur(d)


def test_tau_pentagonal_small_values():
    ground = descendent_labels(12, positive=True)
    positive = solve_linear(ground[:7], discriminant(24), 12)
    # a basis with 0s too, whose reversed labels put their 0s first
    with_zeros = solve_linear(next(descendent_matrix(12).bases()), discriminant(24), 12)
    for dec in (positive, with_zeros):
        # the labels as held, as unsorted tuples, and as lists: one value each
        reversed_labels = dec._replace(basis=tuple(label[::-1] for label in dec.basis))
        list_labels = dec._replace(basis=tuple(list(label) for label in dec.basis))
        for held in (dec, reversed_labels, list_labels):
            assert tau_pentagonal(1, held) == 1
            assert tau_pentagonal(2, held) == -24
            assert tau_pentagonal(6, held) == -6048 == tau_niebur(2) * tau_niebur(3)


def test_tau_triangulation_at_degree_200():
    _, dec = all_positive_decompositions(12)[0]
    assert tau_pentagonal(200, dec) == tau_direct(200) == tau_niebur(200)


def tau_pentagonal_oracle(d, decomposition):
    """The pentagonal-pair sum with the sum over pairs outermost, term by term."""
    total = Fraction(0)
    for j, m in pentagonal_pairs(d):
        sign = 1 if j % 2 == 0 else -1
        inner = Fraction(0)
        for label, coeff in zip(decomposition.basis, decomposition.coefficients):
            inner += coeff * gw_invariant(label, m)
        total += sign * inner
    return total


def test_per_label_sums_match_the_pair_outer_oracle_on_every_positive_row():
    for key, dec in all_positive_decompositions(12):
        for d in range(1, 61):
            assert tau_pentagonal(d, dec) == tau_pentagonal_oracle(d, dec), (key, d)


def test_per_label_sums_match_the_pair_outer_oracle_on_seeded_full_bases():
    labels = descendent_labels(12)
    rng = random.Random(12)
    target = discriminant(base_order(12))
    bases = set()
    decs = []
    while len(decs) < 20:
        basis = tuple(labels[i] for i in sorted(rng.sample(range(len(labels)), 7)))
        if basis in bases:
            continue
        bases.add(basis)
        try:
            decs.append(solve_linear(basis, target, 12))
        except SingularSystemError:
            continue
    # the sample reaches beyond the positive restriction
    assert any(lab[-1] == 0 for dec in decs for lab in dec.basis)
    for dec in decs:
        for d in range(1, 61):
            assert tau_pentagonal(d, dec) == tau_pentagonal_oracle(d, dec), (dec.basis, d)


def test_tau_pentagonal_rejects_corrupt_coefficients():
    ground = descendent_labels(12, positive=True)
    dec = solve_linear(ground[:7], discriminant(24), 12)
    broken = dec.__class__(dec.basis, dec.coefficients[:-1] + (Fraction(1, 7),), 7)
    with pytest.raises(ArithmeticError) as info:
        tau_pentagonal(2, broken)
    assert str(info.value) == (
        "tau(2) evaluated to the non-integer -1855215990581/113481216: corrupt coefficients"
    )


def test_tau_domain_guards():
    with pytest.raises(ValueError):
        tau_niebur(0)
    with pytest.raises(ValueError):
        tau_direct(0)


def test_relation_report_clean_sweep():
    report = tau_relation_report(20)
    assert report.ok
    names = [check.name for check in report.checks]
    assert names == ["multiplicativity", "hecke_recursion", "prime_bound", "nonvanishing"]
    mult = report.checks[0]
    assert mult.cases > 0 and not mult.violations


def test_relation_report_counts_hecke_cases():
    report = tau_relation_report(30)
    hecke = report.checks[1]
    # prime powers p^(r+1) <= 30: 4, 8, 16, 9, 27, 25 -> 6 cases
    assert hecke.cases == 6
    assert report.checks[2].cases == 10  # primes up to 30


def test_deep_tau_leaves_the_memo_tables_bounded():
    # By partition sums, degree 60 would enumerate and memoize all
    # p(60) = 966 467 partitions per invariant; the lift must leave the
    # per-partition memo tables as the weight-12 solve left them.
    rows = all_positive_decompositions(12)
    memos = (descendents._scaled_power_sums, _bounded_partitions)
    before = [memo.cache_info().currsize for memo in memos]
    expected = tau_niebur(60)
    for key, dec in rows:
        assert tau_pentagonal(60, dec) == expected, key
    assert [memo.cache_info().currsize for memo in memos] == before


def test_records_keep_their_fields_repr_equality_and_immutability():
    lin = LinearDecomposition(((4,), (2, 2)), (Fraction(1, 2), Fraction(-3)), 2)
    poly = PolynomialDecomposition(1, GENERATOR_TRIPLES[1], (((0, 3, 0), Fraction(5, 7)),))
    check = TauCheck("nonvanishing", 3, ())
    report = TauReport(3, (check,))
    assert (lin.basis, lin.coefficients, lin.scale, lin.scaled_coefficients) == (
        ((4,), (2, 2)), (Fraction(1, 2), Fraction(-3)), 2, (1, -6)
    )
    assert (poly.triple_type, poly.generators, poly.terms) == (
        1, ((0,), (0, 0), (0, 0, 0)), (((0, 3, 0), Fraction(5, 7)),)
    )
    assert (check.name, check.cases, check.violations, check.ok) == ("nonvanishing", 3, (), True)
    assert (report.max_d, report.checks, report.ok) == (3, (check,), True)
    assert [repr(r) for r in (lin, poly, check, report)] == [
        "LinearDecomposition(basis=((4,), (2, 2)), coefficients=(Fraction(1, 2), Fraction(-3, 1)), scale=2)",
        "PolynomialDecomposition(triple_type=1, generators=((0,), (0, 0), (0, 0, 0)), "
        "terms=(((0, 3, 0), Fraction(5, 7)),))",
        "TauCheck(name='nonvanishing', cases=3, violations=())",
        "TauReport(max_d=3, checks=(TauCheck(name='nonvanishing', cases=3, violations=()),))",
    ]
    assert check == TauCheck("nonvanishing", 3, ()) and hash(check) == hash(TauCheck("nonvanishing", 3, ()))
    assert check != TauCheck("nonvanishing", 3, ("tau(2) = 0",))
    assert lin != LinearDecomposition(lin.basis, lin.coefficients, 4)
    for record, field in ((lin, "scale"), (poly, "terms"), (check, "cases"), (report, "max_d")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)

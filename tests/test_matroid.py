import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from descmat import matroid
from descmat.matroid import (
    LinearMatroid,
    TuttePolynomial,
    descendent_labels,
    descendent_matrix,
    named_restriction,
)
from descmat.partitions import partitions_min_two
from descmat.qseries import QSeries, euler_function
from descmat.quasimodular import qm_dimension
from descmat.quasimodular import expand_in_eisenstein
from oracles import fraction_det, fraction_gauss_rank


A4 = [
    ["1/12", "5/6"],
    ["1/2", "-1"],
]

A6 = [
    ["1/360", "7/120", "7/180", "7/12"],
    ["1/12", "1/4", "2/3", "-15/2"],
    ["1/6", "-3/2", "-8/3", "3"],
]

# the (E4^2, <tau_0^4>) entry is printed two ways; None marks it here and
# the recomputed value is pinned by an independent oracle below
A8_AGREED = [
    ["1/360", "1/36", "13/180", "1/12", "-7/15", "7/180", "-35/3"],
    ["19/2016", "115/504", "25/63", "73/112", "85/24", "25/9", None],
    ["1/24", "-1/3", "-2/3", "-3/4", "-6", "-38/3", "75"],
    ["1/24", "-5/6", "-8/3", "-15/4", "15/2", "40/3", "-15"],
]


def as_fractions(rows):
    return [[None if x is None else Fraction(x) for x in row] for row in rows]


def test_matrix_weight_four():
    assert [list(row) for row in descendent_matrix(4).matrix()] == as_fractions(A4)


def test_matrix_weight_six():
    assert [list(row) for row in descendent_matrix(6).matrix()] == as_fractions(A6)


def test_matrix_weight_eight_agreed_entries():
    matrix = descendent_matrix(8).matrix()
    for i, row in enumerate(as_fractions(A8_AGREED)):
        for j, value in enumerate(row):
            if value is not None:
                assert matrix[i][j] == value


def test_weight_eight_disputed_entry_recomputed():
    # independent route for the <tau_0^4> column: the partition-function
    # closed form 24^4 <tau_0^4> = (q)inf sum (24d-1)^4 p(d) q^d
    from descmat.partitions import partition_count

    order = 9
    series = euler_function(order) * QSeries(
        [(24 * d - 1) ** 4 * partition_count(d) for d in range(order + 1)]
    )
    oracle_column = [c / 24**4 for c in expand_in_eisenstein(series, 8)]
    matrix = descendent_matrix(8).matrix()
    assert [matrix[i][6] for i in range(4)] == oracle_column
    assert matrix[1][6] == Fraction(325, 12)


def test_groundset_orders():
    assert descendent_labels(8) == (
        (6,),
        (4, 0),
        (3, 1),
        (2, 2),
        (2, 0, 0),
        (1, 1, 0),
        (0, 0, 0, 0),
    )
    assert descendent_labels(12, positive=True) == (
        (10,),
        (7, 1),
        (6, 2),
        (5, 3),
        (4, 4),
        (4, 1, 1),
        (3, 2, 1),
        (2, 2, 2),
        (1, 1, 1, 1),
    )
    for k in (4, 6, 8, 10, 12):
        assert len(descendent_labels(k)) == len(partitions_min_two(k))


def test_weight_guards():
    with pytest.raises(ValueError):
        descendent_matrix(7)
    with pytest.raises(ValueError):
        descendent_matrix(20)
    with pytest.raises(ValueError):
        descendent_matrix(8, max_weight=6)
    assert descendent_matrix(8, max_weight=8).rank() == qm_dimension(8)


def test_degenerate_weight_two():
    m2 = descendent_matrix(2)
    assert m2.labels == ((0,),)
    assert m2.rank() == 1
    assert m2.is_uniform() == (1, 1)


def test_ranks_and_counts():
    m8 = descendent_matrix(8)
    assert m8.rank() == 4
    assert m8.bases_count() == 34
    m10 = descendent_matrix(10)
    assert m10.rank() == 5
    assert m10.bases_count() == 730


def test_weight_eight_unique_non_basis():
    m8 = descendent_matrix(8)
    bad = {(4, 0), (2, 0, 0), (1, 1, 0), (0, 0, 0, 0)}
    assert not m8.is_independent(bad)
    non_bases = [
        set(subset)
        for subset in combinations(m8.labels, 4)
        if not m8.is_independent(subset)
    ]
    assert non_bases == [bad]


def test_empty_set_is_independent():
    assert descendent_matrix(6).is_independent(())


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        descendent_matrix(6).is_independent([(9, 9)])


def test_weight_six_bases_match_published_list():
    m6 = descendent_matrix(6)
    assert m6.is_uniform() == (3, 4)
    published = {
        ((4,), (2, 0), (1, 1)),
        ((4,), (1, 1), (0, 0, 0)),
        ((2, 0), (1, 1), (0, 0, 0)),
        ((4,), (2, 0), (0, 0, 0)),
    }
    bases = list(m6.bases())
    assert {tuple(sorted(b)) for b in bases} == {tuple(sorted(b)) for b in published}
    # our enumeration is lexicographic in ground-set indices
    assert bases == [
        ((4,), (2, 0), (1, 1)),
        ((4,), (2, 0), (0, 0, 0)),
        ((4,), (1, 1), (0, 0, 0)),
        ((2, 0), (1, 1), (0, 0, 0)),
    ]


def _powerset(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


@pytest.mark.parametrize("k", [4, 6, 8])
def test_matroid_axioms_brute_force(k):
    m = descendent_matrix(k)
    independent = {
        frozenset(s) for s in _powerset(m.labels) if m.is_independent(s)
    }
    assert frozenset() in independent
    for s in independent:
        for e in s:
            assert s - {e} in independent
    for s1 in independent:
        for s2 in independent:
            if len(s1) < len(s2):
                assert any(s1 | {e} in independent for e in s2 - s1)


def test_positive_restrictions_are_uniform():
    assert descendent_matrix(10, positive=True).is_uniform() == (5, 5)
    assert descendent_matrix(12, positive=True).is_uniform() == (7, 9)


def test_weight_eight_is_not_uniform():
    assert descendent_matrix(8).is_uniform() is None


def test_tutte_published_polynomial():
    t = descendent_matrix(8).tutte()
    expected = TuttePolynomial(
        {
            (4, 0): 1,
            (3, 0): 3,
            (0, 3): 1,
            (2, 0): 6,
            (1, 1): 1,
            (0, 2): 4,
            (1, 0): 9,
            (0, 1): 9,
        }
    )
    assert t == expected
    assert str(t) == "x^4 + 3*x^3 + y^3 + 6*x^2 + x*y + 4*y^2 + 9*x + 9*y"
    assert t(1, 1) == 34


def test_tutte_counts_structure():
    m6 = descendent_matrix(6)
    t = m6.tutte()
    assert t(1, 1) == m6.bases_count()
    independent_sets = sum(1 for s in _powerset(m6.labels) if m6.is_independent(s))
    assert t(2, 1) == independent_sets
    assert t(2, 2) == 2 ** len(m6)


def test_tutte_single_element():
    u11 = LinearMatroid([[Fraction(1)]], ["e"])
    assert str(u11.tutte()) == "x"


def test_tutte_cap():
    with pytest.raises(ValueError):
        descendent_matrix(12).tutte()


@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_a_zero_insertion_embeds_weight_k_in_weight_k_plus_two(k):
    # the divisor operator is injective, so adding a 0 to every label keeps the matroid
    zeros_added = [label + (0,) for label in descendent_labels(k)]
    assert descendent_matrix(k).tutte() == descendent_matrix(k + 2).restrict(zeros_added).tutte()


def test_restrict_keeps_ground_order():
    m8 = descendent_matrix(8)
    r = m8.restrict([(2, 2), (6,), (3, 1)])
    assert r.labels == ((6,), (3, 1), (2, 2))
    assert r.rank() == 3


def test_named_restriction_sizes_and_uniformity():
    nr14 = named_restriction(14)
    assert nr14.is_uniform() == (8, 10)
    assert (3, 3, 2) not in nr14.labels
    assert all(len(lab) <= 3 and min(lab) > 0 for lab in nr14.labels)
    with pytest.raises(ValueError):
        named_restriction(12)


def test_linear_matroid_validation():
    with pytest.raises(ValueError):
        LinearMatroid([[1, 0], [0, 1]], ["a"])
    with pytest.raises(ValueError):
        LinearMatroid([[1, 0], [0, 1]], ["a", "a"])
    with pytest.raises(ValueError):
        LinearMatroid([[1, 0], [0]], ["a", "b"])
    with pytest.raises(ValueError):
        LinearMatroid([], [])
    with pytest.raises(ValueError, match="height 2"):
        LinearMatroid([[1, 2]], ["a"], nrows=3)
    with pytest.raises(ValueError, match="nonnegative"):
        LinearMatroid([], [], nrows=-2)
    empty = LinearMatroid([], [], nrows=3)
    assert empty.rank() == 0
    assert empty.bases_count() == 1


# columns that are small multiples of one to three base vectors, or zero, in
# up to five rows: many flat contractions, so tutte() reads many tails, and
# often more rows than rank or 2r > n
_TAIL_HEAVY = st.integers(min_value=1, max_value=5).flatmap(
    lambda h: st.lists(
        st.lists(st.integers(-3, 3), min_size=h, max_size=h), min_size=1, max_size=3
    ).flatmap(
        lambda base: st.lists(
            st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=len(base), max_size=len(base)),
            min_size=1,
            max_size=9,
        ).map(lambda coeffs: [[sum(c * v[i] for c, v in zip(cs, base)) for i in range(h)] for cs in coeffs])
    )
)


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda h: st.lists(
            st.lists(
                st.fractions(min_value=-2, max_value=2, max_denominator=2),
                min_size=h,
                max_size=h,
            ),
            min_size=1,
            max_size=7,
        )
    )
    | _TAIL_HEAVY
)
def test_bases_match_fraction_elimination(columns):
    m = LinearMatroid(columns, range(len(columns)))
    r = fraction_gauss_rank(columns)
    full = [
        idxs
        for idxs in combinations(range(len(columns)), r)
        if fraction_gauss_rank([columns[i] for i in idxs]) == r
    ]
    assert m.rank() == r
    assert list(m.bases()) == full
    assert m.bases_count() == len(full)
    n = len(columns)
    assert m.is_uniform() == ((r, n) if len(full) == comb(n, r) else None)
    # T(x, y) = sum over subsets A of (x-1)^(r - r(A)) (y-1)^(|A| - r(A)); both
    # sides have degree <= n in x and in y, so the (n+1)^2 grid pins them
    t = m.tutte()
    assert all(i <= n and j <= n for i, j in t.coeffs)
    ranks = Counter(
        (len(idxs), fraction_gauss_rank([columns[i] for i in idxs]))
        for idxs in _powerset(range(n))
    )
    for x in range(n + 1):
        for y in range(n + 1):
            oracle = sum(
                mult * (x - 1) ** (r - ra) * (y - 1) ** (size - ra) for (size, ra), mult in ranks.items()
            )
            assert t(x, y) == oracle


def forbid_subset_rank_tests(monkeypatch, ground_size):
    """Let ``_echelon`` (the rank's elimination) and ``int_row_rank`` run on a whole
    ``ground_size``-column ground set and nothing else.

    The subset enumeration kernel may not even start.
    """

    def whole_ground_set_only(real):
        def rank_test(columns, *args):
            columns = list(columns)
            if len(columns) != ground_size:
                raise RuntimeError(f"rank test on {len(columns)} of {ground_size} columns ran")
            return real(columns, *args)

        return rank_test

    def no_enumeration(*args):
        raise RuntimeError("the subset enumeration started")

    for name in ("_echelon", "int_row_rank"):
        monkeypatch.setattr(matroid, name, whole_ground_set_only(getattr(matroid, name)))
    monkeypatch.setattr(matroid, "_subset_groups", no_enumeration)


@pytest.mark.parametrize(
    "k, positive, enumerate_",
    [
        (16, True, LinearMatroid.bases_count),  # C(21, 10) * 10^3 = 3.5e8
        (14, False, lambda m: next(m.bases())),  # C(34, 8) * 8^3 = 9.3e9
        (12, False, LinearMatroid.tutte),  # 2^21 * 7^3 = 7.2e8
    ],
)
def test_work_above_the_cap_is_refused_before_any_subset_rank_test(
    monkeypatch, k, positive, enumerate_
):
    m = descendent_matrix(k, positive=positive)
    forbid_subset_rank_tests(monkeypatch, len(m))
    with pytest.raises(ValueError, match="enumeration capped"):
        enumerate_(m)


@pytest.mark.parametrize(
    "n, r, enumerate_",
    [
        (30, 26, LinearMatroid.bases_count),  # C(30, 4) * 26^3 = 4.8e8; the dual's 4^3, 1.8e6
        (20, 18, LinearMatroid.tutte),  # 2^20 * 18^3 = 6.1e9; the dual's 2^3, 8.4e6
    ],
)
def test_counts_and_tutte_are_capped_on_the_matroid_asked_about(monkeypatch, n, r, enumerate_):
    # the unit columns, then n - r parallel columns of ones
    m = LinearMatroid([[int(i == j) for i in range(r)] for j in range(r)] + [[1] * r] * (n - r), range(n))
    assert m.rank() == r and 2 * r > n
    # uniformity is capped on the side it searches, the dual, and passes
    assert m.is_uniform() is None

    def no_dual(self):
        raise RuntimeError("the dual was built")

    monkeypatch.setattr(LinearMatroid, "dual", no_dual)
    with pytest.raises(ValueError, match="enumeration capped"):
        enumerate_(m)


def test_is_uniform_stops_at_the_first_dependent_subset(monkeypatch):
    m8 = descendent_matrix(8)
    m8.rank()
    groups = []
    real = matroid._subset_groups

    def recorded(*args):
        for idxs, rank, ids in real(*args):
            groups.append(idxs)
            yield idxs, rank, ids

    monkeypatch.setattr(matroid, "_subset_groups", recorded)
    assert m8.is_uniform() is None
    # rank 4 on 7 elements, so the check runs on the rank-3 dual, whose one
    # group is the root: every 3-subset is read off its rows.  The only
    # dependent 4-subset, {(4, 0), (2, 0, 0), (1, 1, 0), (0, 0, 0, 0)} at
    # (1, 4, 5, 6), leaves the dual's only dependent 3-subset, its complement
    # (0, 2, 3)
    assert groups == [()]


def _group_subsets(of, size):
    """(idxs, rank) of every ``size``-subset of ``of``, expanded from the uncapped
    :func:`matroid._subset_groups` groups by their independent singles, pairs and triples.

    A group of more than three rows, which only a dependent prefix or a
    size other than the rank leaves, is expanded by the Fraction rank of
    each subset's columns in its rows.
    """
    of.rank()  # sets the rows the search starts from
    for idxs, rank, rows in matroid._subset_groups(of._int_columns, of._rank_rows, size):
        if rows is None:
            yield idxs, rank
            continue
        first = idxs[-1] + 1 if idxs else 0
        later = range(first, len(of))
        if len(rows) > 3:
            for subset in combinations(later, size - len(idxs)):
                block = [[row[j - first] for row in rows] for j in subset]
                yield idxs + subset, rank + fraction_gauss_rank(block)
            continue
        found = matroid._independent_subsets(rows, size - len(idxs), later)
        independent = set(chain.from_iterable(found))
        for subset in combinations(later, size - len(idxs)):
            # a set adds the size of its largest subset that the group finds independent
            grew = max(len(s) for s in _powerset(subset) if not s or s in independent)
            yield idxs + subset, rank + grew


def _seeded_restriction(seed, size=12):
    m12 = descendent_matrix(12)
    return m12.restrict(random.Random(seed).sample(m12.labels, size))


DUAL_MATROIDS = {
    **{f"full-{k}": lambda k=k: descendent_matrix(k) for k in range(4, 13, 2)},
    **{
        f"positive-{k}": lambda k=k: descendent_matrix(k, positive=True)
        for k in range(4, 13, 2)
    },
    **{f"named-{k}": lambda k=k: named_restriction(k) for k in (14, 16, 18)},
    **{
        f"w12-{size}-labels": lambda size=size: _seeded_restriction(size, size)
        for size in range(1, 15)
    },
    "empty": lambda: LinearMatroid([], [], nrows=3),
    "rank-0": lambda: LinearMatroid([(0, 0), (0, 0), (0, 0)], "abc"),
    "n-equals-r": lambda: LinearMatroid([(1, 0, 0), (1, 2, 0), ("1/3", 5, -1)], "abc"),
    "parallel": lambda: LinearMatroid(
        [(1, 2, 0), (2, 4, 0), (0, 1, 1), ("-1/2", -1, 0), (3, 6, 0)], "abcde"
    ),
}


@pytest.mark.parametrize("name", DUAL_MATROIDS)
def test_dual_bases_are_the_complements_of_the_bases(name):
    m = DUAL_MATROIDS[name]()
    n, r = len(m), m.rank()
    d = m.dual()
    assert d.labels == m.labels and d.rank() == n - r
    # its rows are n - r primitive kernel vectors of the integer columns
    kernel = [[int(x) for x in row] for row in d.matrix()]
    assert len(kernel) == n - r
    for a in kernel:
        assert gcd(*a) == 1
        assert all(
            sum(x * col[i] for x, col in zip(a, m._int_columns)) == 0 for i in range(m.nrows)
        )

    def bases(of, size):
        # uncapped: full weight 12's dual is over the work cap
        return [idxs for idxs, rank in _group_subsets(of, size) if rank == size]

    primal = bases(m, r)
    complements = [tuple(i for i in range(n) if i not in b) for b in bases(d, n - r)]
    assert sorted(complements) == primal
    assert bases(d.dual(), r) == primal
    assert m.is_uniform() == ((r, n) if len(primal) == comb(n, r) else None)


def test_the_dual_is_eliminated_once(monkeypatch):
    m = named_restriction(16)
    n = len(m)
    assert 2 * m.rank() > n
    calls = []
    real = matroid._echelon

    def counted(rows, ncols):
        # the [Cᵀ | Iₙ] elimination; the dual's own rank() eliminates its columns alone
        if len(rows[0]) == ncols + n:
            calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(matroid, "_echelon", counted)
    for call in (LinearMatroid.tutte, LinearMatroid.bases_count, LinearMatroid.is_uniform):
        call(m)
    assert m.dual() is m.dual()
    assert calls == [m.nrows]


@pytest.mark.parametrize("name", [name for name in DUAL_MATROIDS if name != "full-12"])
def test_tutte_is_the_dual_tutte_with_x_and_y_swapped(name):
    # full weight 12 is left out: 2^21 subsets times rank 7³ is above the cap
    m = DUAL_MATROIDS[name]()
    n, r = len(m), m.rank()
    t, dual = m.tutte(), m.dual().tutte()
    assert t == TuttePolynomial({(j, i): c for (i, j), c in dual.coeffs.items()})
    # and the primal corank-nullity sum, from the uncapped one-size groups of
    # the smaller side, size by size, not from the tails that tutte() reads:
    # a dual subset of size s and rank ρ* is the complement of a primal one
    # of rank r - s + ρ* (test_dual_bases_are_the_complements_of_the_bases
    # checks the dual itself)
    side = m._smaller()
    classes = Counter(
        (size, rank) if side is m else (n - size, r - size + rank)
        for size in range(n + 1)
        for _, rank in _group_subsets(side, size)
    )
    for x in range(n + 1):
        for y in range(n + 1):
            assert t(x, y) == sum(
                mult * (x - 1) ** (r - rank) * (y - 1) ** (size - rank)
                for (size, rank), mult in classes.items()
            )


@pytest.mark.parametrize("k", [14, 16, 18])
def test_named_restriction_tutte_is_the_uniform_closed_form(k):
    m = named_restriction(k)
    r, n = m.is_uniform()
    # T of U(r, n): sum over i of C(n, i) (x - 1)^(r - i) below rank r, C(n, r)
    # at rank r and C(n, i) (y - 1)^(i - r) above it, expanded
    expected = Counter()
    for i in range(n + 1):
        power = abs(r - i)
        for e in range(power + 1):
            term = comb(n, i) * comb(power, e) * (-1) ** (power - e)
            expected[(e, 0) if i <= r else (0, e)] += term
    assert m.tutte() == TuttePolynomial(expected)


class _ColumnEntry(int):
    """A column entry that may be multiplied only inside the pivot step."""

    in_pivot = False

    def __mul__(self, other):
        if not _ColumnEntry.in_pivot:
            raise AssertionError("a column entry was multiplied outside the pivot step")
        return int(self) * int(other)

    __rmul__ = __mul__


def test_enumeration_takes_the_reduced_row_and_dual_routes(monkeypatch):
    # rank tests are lookups in the reduced rows: column entries enter
    # arithmetic only through the pivot step, never a per-child dot product
    real_pivot = matroid._pivot

    def pivot(rows, c, prev):
        _ColumnEntry.in_pivot = True
        try:
            return real_pivot(rows, c, prev)
        finally:
            _ColumnEntry.in_pivot = False

    monkeypatch.setattr(matroid, "_pivot", pivot)
    m10 = descendent_matrix(10)
    calls = (
        LinearMatroid.bases_count,
        lambda m: list(m.bases()),
        LinearMatroid.tutte,
        LinearMatroid.is_uniform,
    )
    expected = [call(m10) for call in calls]
    m10._int_columns = tuple(tuple(map(_ColumnEntry, col)) for col in m10._int_columns)
    assert [call(m10) for call in calls] == expected

    # above half rank, counts, uniformity and tutte() enumerate the dual's rows only
    searched = []
    real_groups = matroid._subset_groups

    def recorded(columns, rank_rows, size):
        searched.append((len(columns), len(rank_rows)))
        return real_groups(columns, rank_rows, size)

    monkeypatch.setattr(matroid, "_subset_groups", recorded)
    for m in (descendent_matrix(8), named_restriction(16), descendent_matrix(14, positive=True)):
        n, r = len(m), m.rank()
        assert 2 * r > n
        for call in (LinearMatroid.tutte, LinearMatroid.bases_count, LinearMatroid.is_uniform):
            searched.clear()
            call(m)
            assert searched == [(n, n - r)], call

    # a restriction of rank 3 on 7 coordinate rows is searched on 3 of them
    m = descendent_matrix(12).restrict([(5, 1, 0), (3, 3, 0), (3, 1, 0, 0), (2, 1, 1, 0)])
    assert (m.nrows, m.rank()) == (7, 3)
    searched.clear()
    assert len(list(m.bases())) == 4
    assert searched == [(4, 3)]


CAP_MATROIDS = {
    **{
        f"{kind}-{k}": lambda k=k, positive=(kind == "positive"): descendent_matrix(k, positive=positive)
        for kind in ("full", "positive")
        for k in range(4, 19, 2)
    },
    **{f"named-{k}": lambda k=k: named_restriction(k) for k in (14, 16, 18)},
}


@pytest.mark.parametrize("name", CAP_MATROIDS)
def test_cap_verdicts_follow_the_primal_work_count(monkeypatch, name):
    m = CAP_MATROIDS[name]()
    n, r = len(m), m.rank()
    monkeypatch.setattr(matroid, "_subset_groups", lambda *args: iter(()))
    for enumerate_, candidates, searched_rank in (
        (LinearMatroid.bases_count, comb(n, r), r),
        (lambda m: list(m.bases()), comb(n, r), r),
        (LinearMatroid.tutte, 2**n, r),
        # uniformity is searched on the dual when 2r > n, and capped there
        (LinearMatroid.is_uniform, comb(n, r), min(r, n - r)),
    ):
        if candidates * searched_rank**3 > matroid.ENUMERATION_CAP:
            with pytest.raises(ValueError, match="enumeration capped"):
                enumerate_(m)
        else:
            enumerate_(m)


RANK_STREAM_MATROIDS = {
    "full-8": lambda: descendent_matrix(8),
    "full-10": lambda: descendent_matrix(10),
    "named-14": lambda: named_restriction(14),
    "w12-seed-1": lambda: _seeded_restriction(1),
    "w12-seed-2": lambda: _seeded_restriction(2),
    "empty": lambda: LinearMatroid([], [], nrows=3),
    "zero-height": lambda: LinearMatroid([(), (), ()], "abc"),
    "zero-column": lambda: LinearMatroid(
        [(1, 2, 3), (0, 0, 0), (2, -1, 5), (1, 1, 1)], "abcd"
    ),
    "parallel": lambda: LinearMatroid(
        [(1, 2, 0), (2, 4, 0), (0, 1, 1), ("-1/2", -1, 0), (3, 6, 0)], "abcde"
    ),
    "nrows-above-rank": lambda: LinearMatroid(
        [(1, 0, 2, 0, 1), (0, 1, 1, 0, 0), (1, 1, 3, 0, 1), (2, -1, 3, 0, 2)], "abcd"
    ),
    "rank-1": lambda: LinearMatroid([(2, 4, 6), (1, 2, 3), (-1, -2, -3), (0, 0, 0)], "abcd"),
}


def _oracle_counts(m):
    """Subsets per (size, rank), each rank by plain fraction elimination."""
    return Counter(
        (len(idxs), fraction_gauss_rank([m._int_columns[i] for i in idxs]))
        for idxs in _powerset(range(len(m)))
    )


def _oracle_tutte(counts):
    """The corank-nullity sum over subsets counted per (size, rank), expanded."""
    r = max(rank for _, rank in counts)
    acc = Counter()
    for (size, rank), mult in counts.items():
        corank, nullity = r - rank, size - rank
        for i in range(corank + 1):
            for j in range(nullity + 1):
                sign = (-1) ** (corank - i + nullity - j)
                acc[i, j] += sign * mult * comb(corank, i) * comb(nullity, j)
    return TuttePolynomial(acc)


@pytest.mark.parametrize("name", RANK_STREAM_MATROIDS)
def test_rank_stream_matches_subset_rank(name):
    m = RANK_STREAM_MATROIDS[name]()
    n, r = len(m), m.rank()
    oracle = _oracle_counts(m)
    assert oracle[n, r] == 1
    # full-8 and named-14 have 2r > n, so they are read on the dual
    assert m.tutte() == _oracle_tutte(oracle)
    assert m.bases_count() == oracle[r, r]
    assert m.is_uniform() == ((r, n) if oracle[r, r] == comb(n, r) else None)


def test_is_uniform_reads_the_bases_stream_to_its_end():
    # rank 2 on 4 labels, so the primal is searched; its only dependent
    # 2-subset, (c, d), comes last, after the stream's last basis
    m = LinearMatroid([[1, 0], [0, 1], [1, 1], [2, 2]], "abcd")
    assert 2 * m.rank() == len(m) == 4
    assert list(m.bases()) == [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    assert m.is_uniform() is None
    assert m.bases_count() == 5


def test_is_uniform_stops_at_the_first_subset_the_bases_stream_skips(monkeypatch):
    # the first seed-3 weight-12 restriction of the matroid-enum benchmark:
    # 2r = n, so the primal is searched
    m = _seeded_restriction(3, 14)
    assert (len(m), m.rank()) == (14, 7)
    groups = []
    real = matroid._subset_groups

    def recorded(*args):
        for idxs, rank, rows in real(*args):
            groups.append(idxs)
            yield idxs, rank, rows

    monkeypatch.setattr(matroid, "_subset_groups", recorded)
    # counting reads every group: the C(n - r + 4, 4) size-4 prefixes that
    # leave room for three more indices
    assert m.bases_count() == 2736
    assert len(groups) == comb(7 + 4, 4) == 330
    groups.clear()
    # the first 7-subset missing from the stream, (0, 1, 2, 6, 10, 12, 13),
    # is in the fourth group
    assert m.is_uniform() is None
    assert groups == [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 2, 6)]


@settings(max_examples=100)
@given(st.data())
def test_pivot_eliminates_a_prefix(data):
    nrows = data.draw(st.integers(1, 5), label="nrows")
    entry = st.integers(-3, 3) | st.integers(-(2**64), 2**64)
    columns = []
    for _ in range(data.draw(st.integers(1, 7), label="n")):
        kind = data.draw(st.sampled_from(("new", "zero", "parallel")) if columns else st.just("new"))
        if kind == "new":
            columns.append(data.draw(st.lists(entry, min_size=nrows, max_size=nrows)))
        elif kind == "zero":
            columns.append([0] * nrows)
        else:
            col, factor = data.draw(st.sampled_from(columns)), data.draw(st.integers(-6, 6))
            columns.append([factor * x for x in col])
    n = len(columns)
    rows = [[col[i] for col in columns] for i in range(nrows)]
    # rows that are combinations of others keep nrows above the rank
    for _ in range(data.draw(st.integers(0, 2), label="dependent rows")):
        a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
        i, j = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, nrows - 1))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    columns = [[row[j] for row in rows] for j in range(n)]
    original = rows
    prefix = sorted(data.draw(st.sets(st.integers(0, n - 1)), label="prefix"))

    def rank(idxs):
        return fraction_gauss_rank([columns[j] for j in idxs])

    def minor(row_idxs, col_idxs):
        return fraction_det([[original[i][j] for j in col_idxs] for i in row_idxs])

    # the original index of each row left, and the pivots' rows and columns
    origin, pivot_rows, pivot_cols = list(range(len(rows))), [], []
    start, prev = 0, 1
    for step, c in enumerate(prefix):
        p = next((i for i, row in enumerate(rows) if row[c - start]), None)
        pivot, rows = matroid._pivot(rows, c - start, prev)
        grew = rank(prefix[: step + 1]) - rank(prefix[:step])
        assert (pivot is not None) == grew
        if pivot is not None:
            tp, tail = pivot
            assert tp != 0 and len(tail) == n - c - 1
            pivot_rows.append(origin.pop(p))
            pivot_cols.append(c)
            assert tp == minor(pivot_rows, pivot_cols)
            prev = tp
        start = c + 1
    assert len(rows) == len(columns[0]) - rank(prefix)
    assert all(len(row) == n - start for row in rows)
    # Bareiss: each entry left is the minor on the pivot rows and columns and its own
    for i, row in zip(origin, rows):
        for j, x in enumerate(row, start=start):
            assert x == minor(pivot_rows + [i], pivot_cols + [j])
    later = range(start, n)
    for size in range(len(later) + 1):
        for subset in combinations(later, size):
            reduced = [[row[j - start] for j in subset] for row in rows]
            assert fraction_gauss_rank(reduced) == rank(prefix + list(subset)) - rank(prefix)


@settings(max_examples=200)
@given(st.data())
def test_group_minors_give_every_single_pair_and_triple_rank(data):
    nrows = data.draw(st.integers(1, 5), label="nrows")
    entry = st.integers(-3, 3) | st.integers(-(2**64), 2**64)
    columns = []
    for _ in range(data.draw(st.integers(1, 8), label="n")):
        kinds = ("new", "zero", "parallel", "coplanar")[: 3 if len(columns) == 1 else 4 if columns else 1]
        kind = data.draw(st.sampled_from(kinds))
        if kind == "new":
            columns.append(data.draw(st.lists(entry, min_size=nrows, max_size=nrows)))
        elif kind == "zero":
            columns.append([0] * nrows)
        elif kind == "parallel":  # v beside -v, 3v, ...
            col, factor = data.draw(st.sampled_from(columns)), data.draw(st.sampled_from((-1, 3, -3, 2)))
            columns.append([factor * x for x in col])
        else:  # a·u + b·v: in the plane of u and v, and parallel to neither when they are independent
            u, v = data.draw(st.lists(st.sampled_from(columns), min_size=2, max_size=2, unique_by=id))
            a, b = data.draw(st.sampled_from((1, -1, 2))), data.draw(st.sampled_from((1, -2, 5)))
            columns.append([a * x + b * y for x, y in zip(u, v)])
    # rows that are combinations of others keep nrows above the rank, which
    # the search must not see
    for _ in range(data.draw(st.integers(0, 2), label="dependent rows")):
        a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
        i, j = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, nrows - 1))
        for col in columns:
            col.append(a * col[i] + b * col[j])
    n = len(columns)
    m = LinearMatroid(columns, range(n))
    # the rank itself often enough that groups of three rows are read
    top = data.draw(st.just(max(m.rank(), 1)) | st.integers(1, n), label="size")

    def rank(idxs):
        return fraction_gauss_rank([columns[j] for j in idxs])

    groups = 0
    for idxs, r, rows in matroid._subset_groups(m._int_columns, m._rank_rows, top):
        assert r == rank(idxs)
        groups += 1
        first = idxs[-1] + 1 if idxs else 0
        assert len(idxs) == max(top - 3, 0)
        # the search starts from the rank's rows, and a group keeps one row
        # per row its prefix leaves unpivoted
        assert len(rows) == m.rank() - r
        assert all(len(row) == n - first for row in rows)
        if len(rows) > 3:  # a dependent prefix, or a size below the rank
            continue
        later, depth = range(first, n), top - len(idxs)
        found = matroid._independent_subsets(rows, depth, later)
        for size in (1, 2, 3):
            # the sets of this size that add their size to the rank, in lexicographic order
            expected = [s for s in combinations(later, size) if rank(idxs + s) == r + size]
            assert list(found[size - 1]) == (expected if size <= depth else [])
    assert groups > 0
    assert m.bases_count() == len(list(m.bases()))


@settings(max_examples=100)
@given(st.data())
def test_flat_rows_are_the_rows_of_rank_at_most_one(data):
    # rows that are multiples of one row, some zero, with at most a few
    # others: the first two rows alone often cannot tell
    width = data.draw(st.integers(2, 6), label="width")
    entry = st.integers(-3, 3) | st.integers(-(2**64), 2**64)
    base = data.draw(st.lists(entry, min_size=width, max_size=width), label="base")
    multiple = st.integers(-2, 2).map(lambda f: [f * x for x in base])
    other = st.lists(entry, min_size=width, max_size=width)
    rows = data.draw(st.lists(multiple | multiple | other, min_size=2, max_size=5), label="rows")
    assert matroid._flat(rows) == (fraction_gauss_rank(rows) <= 1)


def count_elimination_steps(monkeypatch):
    """Count the subset search's elimination steps, each one :func:`_pivot`."""
    calls = Counter()
    real = matroid._pivot

    def counted(rows, c, prev):
        calls["_pivot"] += 1
        return real(rows, c, prev)

    monkeypatch.setattr(matroid, "_pivot", counted)
    return calls


def test_bases_count_pivots_only_above_the_last_three_levels(monkeypatch):
    m = descendent_matrix(12)
    n, r = len(m), m.rank()
    assert (n, r) == (21, 7)
    calls = count_elimination_steps(monkeypatch)
    assert m.bases_count() == 102670
    # a size-d prefix is eliminated only when its last index leaves room for
    # the r - d indices still to come, which C(n - r + d, d) prefixes do;
    # sizes 1 to r - 3 take a step, the last of them the groups' own, since
    # the last three levels are read off minors: 15 + 120 + 680 + 3060
    # (r - 2 would add C(19, 5) = 11 628 more)
    assert calls == {"_pivot": 15 + 120 + 680 + 3060}
    assert calls.total() == sum(comb(n - r + d, d) for d in range(1, r - 2)) == 3875


def test_childless_prefixes_take_no_pivot(monkeypatch):
    m = descendent_matrix(10)
    n, r = len(m), m.rank()
    assert (n, r) == (12, 5)
    rank = {idxs: fraction_gauss_rank([m._int_columns[i] for i in idxs]) for idxs in _powerset(range(n))}
    calls = count_elimination_steps(monkeypatch)
    assert m.tutte() == _oracle_tutte(Counter((len(idxs), ra) for idxs, ra in rank.items()))
    # a prefix P whose later columns L add at most 1 to its rank is a tail and
    # has no child; every other prefix has a child at each index of L, and all
    # but the one at n - 1, which reads its rank off the parent, take a step.
    # Were every prefix of rank at most r - 2 such a parent, as in a uniform
    # matroid, that would be the sum over d = 1..r-1 of C(n - 1, d) = 561
    def later(idxs):
        return tuple(range(idxs[-1] + 1 if idxs else 0, n))

    parents = [idxs for idxs in rank if rank[idxs + later(idxs)] - rank[idxs] >= 2]
    assert calls.total() == sum(len(later(idxs)) - 1 for idxs in parents) == 551


def test_a_rank_one_root_is_a_tail_in_any_number_of_rows(monkeypatch):
    # rank 1 on 3 rows: the search starts from the one row the rank pivots
    # on, so the root is a tail and the polynomial is read off binomials
    m = LinearMatroid([(2, 4, 6), (1, 2, 3), (-1, -2, -3), (0, 0, 0), (5, 10, 15)], "abcde")
    assert (m.nrows, m.rank()) == (3, 1)
    calls = count_elimination_steps(monkeypatch)
    assert m.tutte() == _oracle_tutte(_oracle_counts(m))
    assert calls.total() == 0


def test_full_weight_twelve_tutte_is_pinned(monkeypatch):
    # 2^21 subsets times rank 7³ is above the cap; the polynomial was hashed
    # from the minor-group route, before tutte() read tails
    monkeypatch.setattr(matroid, "ENUMERATION_CAP", 10**12)
    m = descendent_matrix(12)
    t = m.tutte()
    assert len(t.coeffs) == 40
    assert t(1, 1) == m.bases_count() == 102670
    assert t(2, 2) == 2**21
    digest = hashlib.sha256((str(t) + "\n").encode()).hexdigest()
    assert digest == "34849d2ad1ad7e1389976def8bb3b19860c13e7cb9fb2646cc4dee5f908c8e5a"


def test_full_weight_twelve_bases_stream_is_pinned():
    m = descendent_matrix(12)
    assert m.bases_count() == 102670
    # the lexicographic stream, as hashed at commit 6acfa62, before the leaves read minors
    digest = hashlib.sha256(repr(list(m.bases())).encode()).hexdigest()
    assert digest == "42345012ad6906fff47973b6906764c6d788a764c1a220a8ac7b0006ab6a3dd3"

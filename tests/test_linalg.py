from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from descmat.linalg import (
    InconsistentSystemError,
    SingularSystemError,
    _over_common_denominator,
    _primitive,
    factor_columns,
    int_row_rank,
)
from oracles import solve_exact


def fraction_gauss_rank(rows):
    """Reference rank by plain fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                for j in range(c, len(m[0])):
                    m[i][j] -= f * m[rank][j]
        rank += 1
    return rank


# small entries make dependencies likely; large ones grow the pivot step's products
entries = st.integers(-6, 6) | st.integers(-(2**64), 2**64)


@st.composite
def matrices(draw):
    """Up to 5 rows and 8 columns, some of them zero."""
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    row = st.lists(entries, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=height, max_size=height))
    zero_rows = draw(st.sets(st.integers(0, height - 1)))
    zero_cols = draw(st.sets(st.integers(0, width - 1)))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


@settings(max_examples=200)
@given(matrices())
def test_int_row_rank_matches_fraction_elimination(rows):
    assert int_row_rank(rows) == fraction_gauss_rank(rows)


def test_rank_early_stop():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert int_row_rank(rows) == 3


def test_scale_row_clears_denominators_and_content():
    assert _primitive([Fraction(1, 2), Fraction(2, 3)]) == ([3, 4], Fraction(1, 6))
    assert _primitive([Fraction(4), Fraction(6)]) == ([2, 3], 2)
    assert _primitive([Fraction(-4, 3), 6]) == ([-2, 9], Fraction(2, 3))
    assert _primitive([0, 0]) == ([0, 0], 1)
    assert _primitive([]) == ([], 1)
    # entries that are neither int nor Fraction are read through Fraction
    assert _primitive(["1/3", 0.5, 2]) == ([2, 3, 12], Fraction(1, 6))


def test_rational_rank_of_columns():
    cols = [
        (Fraction(1, 12), Fraction(1, 2)),
        (Fraction(5, 6), Fraction(-1)),
        (Fraction(1, 6), Fraction(1)),
    ]
    assert int_row_rank([_primitive(c)[0] for c in cols]) == 2


def test_solve_exact_simple_system():
    cols = [[1, 0, 2, 1], [0, 1, 1, 1]]
    target = [3, 4, 10, 7]
    assert solve_exact(cols, target) == [3, 4]


def test_solve_exact_recruits_later_rows_for_singular_leading_block():
    # the leading 2x2 block is all zeros; pivots come from rows 2 and 3
    cols = [[0, 0, 1, 0, 5], [0, 0, 0, 1, 7]]
    target = [0, 0, 2, 3, 31]
    assert solve_exact(cols, target) == [2, 3]


def test_solve_exact_detects_dependent_columns():
    cols = [[1, 2, 3], [2, 4, 6]]
    with pytest.raises(SingularSystemError):
        solve_exact(cols, [1, 2, 3])


def test_solve_exact_detects_inconsistency():
    cols = [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(InconsistentSystemError):
        solve_exact(cols, [1, 1, 3])


def test_solve_exact_underdetermined_is_singular():
    with pytest.raises(SingularSystemError):
        solve_exact([[1], [2]], [1])


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(
                    st.fractions(min_value=-4, max_value=4, max_denominator=5),
                    min_size=n + 2,
                    max_size=n + 2,
                ),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.fractions(min_value=-4, max_value=4, max_denominator=5),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_solve_exact_reproduces_known_combinations(cols_and_x):
    cols, x = cols_and_x
    nrows = len(cols[0])
    target = [
        sum((x[j] * cols[j][i] for j in range(len(cols))), Fraction(0))
        for i in range(nrows)
    ]
    try:
        solution = solve_exact(cols, target)
    except SingularSystemError:
        assert fraction_gauss_rank([list(r) for r in zip(*cols)]) < len(cols)
        return
    assert solution == list(x)


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.integers(min_value=1, max_value=5).flatmap(
            lambda h: st.tuples(
                st.lists(st.lists(entries, min_size=h, max_size=h), min_size=n, max_size=n),
                st.lists(entries, min_size=h, max_size=h),
            )
        )
    )
)
def test_solve_exact_verdicts_match_fraction_elimination(cols_and_target):
    cols, target = cols_and_target
    rows = [list(r) for r in zip(*cols)]
    rank = fraction_gauss_rank(rows)
    if rank < len(cols):
        with pytest.raises(SingularSystemError):
            solve_exact(cols, target)
    elif fraction_gauss_rank([r + [t] for r, t in zip(rows, target)]) > rank:
        with pytest.raises(InconsistentSystemError):
            solve_exact(cols, target)
    else:
        x = solve_exact(cols, target)
        assert [sum(xj * c for xj, c in zip(x, row)) for row in rows] == target


def solve_outcome(solve, *args):
    """The solution as a tuple, or the type of the solver's domain error."""
    try:
        return tuple(solve(*args))
    except (SingularSystemError, InconsistentSystemError) as exc:
        return type(exc)


@settings(max_examples=150)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.integers(min_value=1, max_value=6).flatmap(
            lambda h: st.tuples(
                st.lists(
                    st.lists(
                        st.fractions(min_value=-3, max_value=3, max_denominator=4),
                        min_size=h,
                        max_size=h,
                    ),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
                st.lists(st.integers(min_value=-3, max_value=3), min_size=h, max_size=h),
            )
        )
    )
)
def test_factored_solve_matches_solve_exact(cols_x_target):
    cols, x, target = cols_x_target
    in_span = [sum((xj * col[i] for xj, col in zip(x, cols)), Fraction(0)) for i in range(len(target))]
    int_cols, scales = zip(*map(_over_common_denominator, cols))
    for t in (target, in_span):
        factored = solve_outcome(lambda t: factor_columns(int_cols, scales)(t), t)
        assert factored == solve_outcome(solve_exact, cols, t)
        # the same target handed over as integer numerators and a denominator
        ints, den = _over_common_denominator(t)
        assert solve_outcome(lambda: factor_columns(int_cols, scales)(ints, den)) == factored

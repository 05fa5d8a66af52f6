"""Exact linear algebra over the rationals.

One elimination step, :func:`_pivot`, serves the whole package.  It
eliminates one column of integer rows by the fraction-free (Bareiss)
update (t_p·row_i − t_i·row_p) // prev, prev being the last pivot taken,
which divides exactly and keeps every entry a minor of the original
rows.  :func:`_echelon` folds the step over leading columns:
:func:`int_row_rank` counts its pivots, and :func:`_solve`
back-substitutes through them.  The package's one solver,
:func:`factor_columns`, runs :func:`_solve` once on the columns with the
identity appended, so the factored columns then solve any number of
targets; its oracle, a one-off solve on a target-augmented column, lives
with the tests.  Back-substitution stays in integers too, over one
running denominator, so a solution costs one Fraction per entry.
:func:`_relations` keeps the rows that never pivot, the relations among
vectors, which give the dual in :mod:`descmat.matroid` and every row of
the discriminant table; the subset search takes the same step.
Rational rows become primitive integer rows by :func:`_primitive`: no
floating point and no pivot tolerance.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


class SingularSystemError(ValueError):
    """The columns do not have full column rank: no unique solution."""


class InconsistentSystemError(ValueError):
    """The target vector is not in the span of the columns."""


def _over_common_denominator(coeffs) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over the lcm of their denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _primitive(row) -> tuple[list[int], Fraction]:
    """(ints, scale) with row = scale·ints, ints primitive, scale > 0; "1/3" or 0.5 go via Fraction."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    ints, den = _over_common_denominator(row)
    g = gcd(*ints)
    return ([x // g for x in ints] if g > 1 else ints), Fraction(g or 1, den)


def _pivot(rows, c, prev):
    """Eliminate column ``c`` from integer ``rows``: (pivot, rows cut to the columns after c).

    With t_p the first nonzero entry of column c, in row p, every other
    row i becomes (t_p·row_i − t_i·row_p) // prev, which is zero at c;
    row p is dropped and pivot is (t_p, tail), tail being row p cut to
    the columns after c.  ``prev`` is the t_p of the step before (1 at
    the first), and by Sylvester's identity the division is exact: when
    every step has divided so, each entry is the minor of the original
    rows on the pivots' rows and columns, in the order taken, and its
    own (Bareiss 1968).  When column c is zero in every row, no row is
    dropped and pivot is None.  Either way, on any set S of later
    columns the returned rows have the rank of ``rows`` on {c} ∪ S, less
    one for a pivot.
    """
    for p, row in enumerate(rows):
        if row[c]:
            break
    else:
        return None, [row[c + 1 :] for row in rows]
    tp, tail = rows[p][c], rows[p][c + 1 :]
    return (tp, tail), [
        [(tp * x - t * y) // prev for x, y in zip(row[c + 1 :], tail)]
        for row in rows[:p] + rows[p + 1 :]
        for t in [row[c]]
    ]


def _echelon(rows, ncols: int):
    """:func:`_pivot` folded over the first ``ncols`` columns of ``rows``.

    Returns (pivots, rest): pivots[j] is column j's pivot or None, and
    rest holds the rows that never pivoted, cut to the columns from
    ``ncols`` on.
    """
    pivots = [None] * ncols
    prev = 1
    for j in range(ncols):
        pivots[j], rows = _pivot(rows, 0, prev)
        if pivots[j]:
            prev = pivots[j][0]
    return pivots, rows


def int_row_rank(rows) -> int:
    """Rank of an integer matrix: the number of pivots :func:`_echelon` finds."""
    rows = list(rows)
    pivots, _ = _echelon(rows, len(rows[0]) if rows else 0)
    return len(pivots) - pivots.count(None)


def _relations(vectors, ncols: int) -> list[list[int]]:
    """The primitive integer rows a with Σ a_j·vectors[j] = 0 on the first ``ncols`` entries.

    They are the rows of [vectors | I] that :func:`_echelon` leaves after
    the first ``ncols`` columns, in input order: one per vector that never
    pivots, together a basis of every such a.
    """
    n = len(vectors)
    rows = [[*v[:ncols], *(int(i == j) for i in range(n))] for j, v in enumerate(vectors)]
    return [_primitive(row)[0] for row in _echelon(rows, ncols)[1]]


def _solve(rows, ncols: int):
    """(X, den, rest) for the integer rows [A | B], A having ``ncols`` columns.

    Every column of A must pivot, else :class:`SingularSystemError`.  X
    holds one integer row per unknown over the one common denominator
    den > 0, back-substituted through the pivot rows, and X/den solves
    A·X/den = B whenever B is in the column span, which holds exactly
    when every row of ``rest`` is zero.  den is kept the least common
    denominator of the rows solved so far.
    """
    if len(rows) < ncols:
        raise SingularSystemError(f"{len(rows)} rows cannot pin down {ncols} unknowns")
    pivots, rest = _echelon(rows, ncols)
    rank = ncols - pivots.count(None)
    if rank < ncols:
        raise SingularSystemError(f"column rank {rank} < {ncols}: system is singular")
    x: list[list[int]] = [[]] * ncols
    den = 1
    for j in reversed(range(ncols)):
        tp, tail = pivots[j]
        later = ncols - 1 - j
        # tp·x_j = tail's B part − Σ u·x_k over the later unknowns, all over den
        row = [v * den for v in tail[later:]]
        for u, xk in zip(tail[:later], x[j + 1 :]):
            if u:
                row = [a - u * b for a, b in zip(row, xk)]
        # x_j = row / (den·tp); reduce that, then bring every row to the
        # lcm, which is positive whatever the sign of tp
        row_den = den * tp
        g = gcd(row_den, *row)
        row_den //= g
        new_den = lcm(den, row_den)
        if new_den != den:
            f = new_den // den
            x[j + 1 :] = [[a * f for a in xk] for xk in x[j + 1 :]]
        f = new_den // row_den
        x[j] = [a // g * f for a in row]
        den = new_den
    return x, den, rest


def factor_columns(columns, scales):
    """Eliminate fixed columns once; return their exact solver.

    Column j is the integer column ``columns[j]`` over ``scales[j]``.  The
    returned ``solve(target, den=1)`` gives, as a tuple, the exact
    coefficients x with Σ x_j·column_j = target / den, at the cost of
    integer dot products and one Fraction per coordinate.  Dependent
    columns raise :class:`SingularSystemError` here, and a target outside
    their span raises :class:`InconsistentSystemError` from ``solve``.
    The integer block is eliminated with the identity appended, which
    records the row operations as an integer matrix L.  The rows of L
    past the pivots annihilate every column, so a target lies in the
    span exactly when each of them annihilates it too.  The pivot rows, back-substituted
    once, become an integer solution operator over one common denominator.
    """
    ncols = len(columns)
    nrows = len(columns[0]) if columns else 0
    if any(len(col) != nrows for col in columns):
        raise ValueError("columns must have equal length")
    m = [
        [col[i] for col in columns] + [int(i == r) for r in range(nrows)]
        for i in range(nrows)
    ]
    # row j of ops maps a target to the integer column's coefficient, so
    # column j's own unknown is scales[j] times it
    ops, op_den, checks = _solve(m, ncols)
    solution = [[x * scale for x in row] for row, scale in zip(ops, scales)]

    def solve(target, den: int = 1) -> tuple[Fraction, ...]:
        if len(target) != nrows:
            raise ValueError("columns and target must have equal length")
        ints, t_den = _over_common_denominator(target)
        for i, row in enumerate(checks, start=ncols):
            if sum(map(mul, row, ints)):
                raise InconsistentSystemError(
                    f"row {i} is inconsistent: target is not in the column span"
                )
        den *= op_den * t_den
        return tuple(Fraction(sum(map(mul, row, ints)), den) for row in solution)

    return solve

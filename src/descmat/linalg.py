"""Exact linear algebra over the rationals.

One fraction-free (Bareiss) elimination kernel serves three entry
points: :func:`int_row_rank` returns the rank it finds,
:func:`solve_exact` runs it on the target-augmented rows and
back-substitutes, and :func:`factor_columns` runs it once on
identity-augmented columns to solve many targets against them, with
:func:`solve_exact` as its oracle.  Rational rows are made integer by
clearing denominators: no floating point, no pivot tolerance, and the
two-term update keeps intermediate entries at minor-determinant size.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


class SingularSystemError(ValueError):
    """The columns do not have full column rank: no unique solution."""


class InconsistentSystemError(ValueError):
    """The target vector is not in the span of the columns."""


def scale_row_to_int(row) -> list[int]:
    """Clear denominators of one rational row and divide out the content."""
    fr = [Fraction(x) for x in row]
    if not fr:
        return []
    mult = lcm(*(f.denominator for f in fr))
    ints = [f.numerator * (mult // f.denominator) for f in fr]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _eliminate(m: list[list[int]], ncols: int) -> int:
    """Bareiss-eliminate the integer rows ``m`` in place; return the rank.

    Pivots are sought only in the first ``ncols`` columns, but every
    update runs to the end of the row, so trailing columns (an augmented
    target) are carried along.  The k-th pivot lands in row k, and rows
    from the rank on are zero in the first ``ncols`` columns; at rank
    ``ncols`` the pivots are the diagonal entries.
    """
    nrows = len(m)
    width = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    for c in range(ncols):
        if rank == nrows:
            break
        piv = None
        for i in range(rank, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        pv = pr[c]
        for i in range(rank + 1, nrows):
            ri = m[i]
            f = ri[c]
            if f:
                for j in range(c + 1, width):
                    ri[j] = (pv * ri[j] - f * pr[j]) // prev
            elif pv != prev:
                for j in range(c + 1, width):
                    ri[j] = (pv * ri[j]) // prev
            ri[c] = 0
        prev = pv
        rank += 1
    return rank


def int_row_rank(rows) -> int:
    """Rank of an integer matrix by Bareiss elimination with row pivoting."""
    m = [list(r) for r in rows]
    return _eliminate(m, len(m[0]) if m else 0)


def solve_exact(columns, target) -> list[Fraction]:
    """Solve sum_j x_j columns[j] = target exactly, using every row.

    Elimination runs over all available rows, so a singular leading block
    simply recruits later rows as pivots; rows that never pivot act as
    consistency checks on the solution.  Raises
    :class:`SingularSystemError` when the columns are dependent (or too
    few rows carry a pivot) and :class:`InconsistentSystemError` when the
    target lies outside the column span.
    """
    ncols = len(columns)
    nrows = len(target)
    if any(len(col) != nrows for col in columns):
        raise ValueError("columns and target must have equal length")
    if nrows < ncols:
        raise SingularSystemError(f"{nrows} rows cannot pin down {ncols} unknowns")
    m = [
        scale_row_to_int([columns[j][i] for j in range(ncols)] + [target[i]])
        for i in range(nrows)
    ]
    rank = _eliminate(m, ncols)
    if rank < ncols:
        raise SingularSystemError(f"column rank {rank} < {ncols}: system is singular")
    for i in range(ncols, nrows):
        if m[i][ncols]:
            raise InconsistentSystemError(
                f"row {i} is inconsistent: target is not in the column span"
            )
    x = [Fraction(0)] * ncols
    for r in reversed(range(ncols)):
        s = Fraction(m[r][ncols])
        for j in range(r + 1, ncols):
            s -= m[r][j] * x[j]
        x[r] = s / m[r][r]
    return x


def factor_columns(columns):
    """Eliminate fixed rational columns once; return their exact solver.

    The returned ``solve(target)`` gives the tuple :func:`solve_exact`
    would give for these columns, and raises the same errors, at the cost
    of integer dot products.  Each column's denominators are cleared and
    the integer block is eliminated with the identity appended, which
    records the row operations as an integer matrix L.  The rows of L
    past the pivots annihilate every column, so a target lies in the span
    exactly when each of them annihilates it too.  The pivot rows,
    back-substituted once, become an integer solution operator over one
    common denominator.
    """
    ncols = len(columns)
    nrows = len(columns[0]) if columns else 0
    if any(len(col) != nrows for col in columns):
        raise ValueError("columns must have equal length")
    if nrows < ncols:
        raise SingularSystemError(f"{nrows} rows cannot pin down {ncols} unknowns")
    dens = [lcm(*(Fraction(x).denominator for x in col)) for col in columns]
    m = [
        [int(Fraction(col[i]) * den) for col, den in zip(columns, dens)]
        + [int(i == r) for r in range(nrows)]
        for i in range(nrows)
    ]
    rank = _eliminate(m, ncols)
    if rank < ncols:
        raise SingularSystemError(f"column rank {rank} < {ncols}: system is singular")
    checks = [row[ncols:] for row in m[ncols:]]
    # y = U^-1 L_top t solves the scaled columns; column j's unknown is dens[j] * y_j
    ops: list[list[Fraction]] = [[]] * ncols
    for r in reversed(range(ncols)):
        row = [Fraction(v) for v in m[r][ncols:]]
        for j in range(r + 1, ncols):
            u = m[r][j]
            if u:
                row = [a - u * b for a, b in zip(row, ops[j])]
        ops[r] = [a / m[r][r] for a in row]
    den = lcm(*(f.denominator for row in ops for f in row))
    solution = [
        [f.numerator * (den // f.denominator) * scale for f in row]
        for row, scale in zip(ops, dens)
    ]

    def solve(target) -> tuple[Fraction, ...]:
        if len(target) != nrows:
            raise ValueError("columns and target must have equal length")
        t = [Fraction(x) for x in target]
        t_den = lcm(*(f.denominator for f in t))
        ints = [f.numerator * (t_den // f.denominator) for f in t]
        for i, row in enumerate(checks, start=ncols):
            if sum(map(mul, row, ints)):
                raise InconsistentSystemError(
                    f"row {i} is inconsistent: target is not in the column span"
                )
        return tuple(Fraction(sum(map(mul, row, ints)), den * t_den) for row in solution)

    return solve

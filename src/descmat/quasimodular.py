"""Weight-graded monomial bases in the three Eisenstein generators.

The graded piece of weight k is spanned by monomials E2^a E4^b E6^c with
2a + 4b + 6c = k.  Their order is frozen (heaviest E6 power first, then
heaviest E4 power) because printed matrices and tables elsewhere index
rows by it.

A monomial is the product of its generator series.  24·E2, 240·E4 and
504·E6 are integer series with constant term ±1, so each monomial's
numerators are integers over the product of its generators' scales.
The solver factors those integer columns, read off the monomial series
themselves.
"""

from functools import cache
from typing import NamedTuple

from .linalg import factor_columns
from .qseries import QSeries, eisenstein_series

EXPANSION_MARGIN = 5


class InsufficientOrderError(ValueError):
    """The series carries too few coefficients to solve and cross-check."""


class EisensteinMonomial(NamedTuple):
    """Exponent triple (a, b, c) for E2^a E4^b E6^c."""

    a: int
    b: int
    c: int

    @property
    def weight(self) -> int:
        return 2 * self.a + 4 * self.b + 6 * self.c

    def weight_tuple(self) -> tuple[int, ...]:
        """The monomial as a tuple of generator weights, e.g. (6, 2)."""
        return (6,) * self.c + (4,) * self.b + (2,) * self.a


def qm_dimension(k: int) -> int:
    """Dimension of the weight-k graded piece.

    Counts partitions of k/2 with no part above 3, i.e. solutions of
    a + 2b + 3c = k/2.
    """
    if k < 0 or k % 2:
        raise ValueError(f"weight must be a nonnegative even integer, got {k}")
    half = k // 2
    return sum((half - 3 * c) // 2 + 1 for c in range(half // 3 + 1))


@cache
def base_order(k: int) -> int:
    """Order of a weight-k solve: qm_dimension(k) pivots, EXPANSION_MARGIN checks."""
    return qm_dimension(k) + EXPANSION_MARGIN


@cache
def eisenstein_monomials(k: int) -> tuple[EisensteinMonomial, ...]:
    """All weight-k monomials in the frozen row order."""
    if k < 2 or k % 2:
        raise ValueError(f"weight must be a positive even integer, got {k}")
    out = []
    for c in range(k // 6, -1, -1):
        rem = k - 6 * c
        for b in range(rem // 4, -1, -1):
            out.append(EisensteinMonomial((rem - 4 * b) // 2, b, c))
    return tuple(out)


@cache
def monomial_series(mono: EisensteinMonomial, order: int) -> QSeries:
    """q-expansion of one Eisenstein monomial.

    Its heaviest generator (E6, then E4, then E2) times the memoized
    monomial without it; a lone generator is its own series.
    """
    if not any(mono):
        return QSeries([1], order=order)
    a, b, c = mono
    w, rest = (6, (a, b, c - 1)) if c else (4, (a, b - 1, 0)) if b else (2, (a - 1, 0, 0))
    head = eisenstein_series(w, order)
    return head * monomial_series(EisensteinMonomial(*rest), order) if any(rest) else head


def expand_in_eisenstein(series: QSeries, k: int):
    """Coordinates of a weight-k series in the Eisenstein monomial basis.

    The series must carry at least ``base_order(k)`` coefficients; rows
    beyond the pivot set are checked against the solution, which turns
    "not actually a weight-k form" from a silent wrong answer into
    :class:`~descmat.linalg.InconsistentSystemError`.  Returns the full
    coefficient vector in monomial order.  The monomial block is factored
    once per (k, order) and shared by every series of that order; its
    oracle, a one-off solve of the same columns, is in ``tests/oracles.py``.
    """
    base = base_order(k)
    if series.order < base:
        raise InsufficientOrderError(
            f"weight-{k} expansion needs order >= {base}, got {series.order}"
        )
    return _monomial_solver(k, series.order)(series.nums, series.den)


@cache
def _monomial_columns(k: int, order: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(columns, scales): each weight-k monomial series' ``nums`` and ``den`` to ``order``."""
    series = [monomial_series(m, order) for m in eisenstein_monomials(k)]
    return tuple(s.nums for s in series), tuple(s.den for s in series)


@cache
def _monomial_solver(k: int, order: int):
    """The factored weight-k monomial columns, truncated at ``order``.

    Its ``solve(target, den=1)`` takes integer numerators over den, as
    :func:`~descmat.descendents.eisenstein_coordinates` hands them over.
    """
    return factor_columns(*_monomial_columns(k, order))


"""Slow-and-sure oracles that the package's fast routes are tested against.

None of this runs in the package.  :func:`partition_sum` is the
degree-d descendent invariant as a Fraction sum over the partitions of
d, the oracle of the integer kernel and of the lift.  The character
double sum :func:`gw_character_oracle`, with characters by rim-hook
peeling, is that sum's own oracle.  :func:`solve_exact`, one solve on a
target-augmented column, is the oracle of the factored solver
``descmat.linalg.factor_columns`` and of every route built on it.
"""

from fractions import Fraction
from functools import cache
from math import factorial, prod

from descmat.descendents import as_label
from descmat.linalg import InconsistentSystemError, _primitive, _solve
from descmat.partitions import partitions_of, pk_constant


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
    rows = [_primitive(row)[0] for row in zip(*columns, target)]
    x, den, rest = _solve(rows, ncols)
    for i, (t,) in enumerate(rest, start=ncols):
        if t:
            raise InconsistentSystemError(
                f"row {i} is inconsistent: target is not in the column span"
            )
    return [Fraction(xj, den) for (xj,) in x]


def as_partition(parts) -> tuple[int, ...]:
    """Validate an iterable of parts and return the canonical tuple."""
    lam = tuple(int(x) for x in parts)
    if any(x < 1 for x in lam):
        raise ValueError(f"partition parts must be positive integers: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def centralizer_order(parts) -> int:
    """Order of the centralizer of a permutation with cycle type ``parts``.

    Equals (prod of multiplicity factorials) * (prod of parts); the empty
    cycle type gives 1.
    """
    lam = as_partition(parts)
    return prod(factorial(lam.count(x)) for x in set(lam)) * prod(lam)


@cache
def shifted_power_sum(k: int, lam: tuple[int, ...]) -> Fraction:
    """Order-k shifted power sum of a partition.

    sum_i [(lam_i - i + 1/2)^k - (-i + 1/2)^k] + c_k, an exact rational.
    Trailing zero parts contribute nothing, so padded tuples are accepted
    and agree with the stripped partition.
    """
    if k < 1:
        raise ValueError("shifted power sums are indexed by k >= 1")
    num = sum((2 * part - 2 * i + 1) ** k - (1 - 2 * i) ** k for i, part in enumerate(lam, start=1))
    return Fraction(num, 2**k) + pk_constant(k)


def character(lam, mu) -> int:
    """Character value chi^lam_mu; both arguments partitions of the same d."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"character requires |lam| = |mu|, got {sum(lam)} and {sum(mu)}")
    return _rim_hook_character(lam, mu)


@cache
def _rim_hook_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Remove a rim hook of length mu_1 from lam in every possible way.

    On first-column hook lengths (beta numbers) a hook removal is one
    bead move b -> b - mu_1, with sign (-1)^(beads jumped over).
    """
    if not mu:
        return 1
    hook, rest = mu[0], mu[1:]
    n = len(lam)
    beta = [part + n - 1 - i for i, part in enumerate(lam)]
    total = 0
    for b in beta:
        nb = b - hook
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted([nb, *(other for other in beta if other != b)], reverse=True)
        new_lam = tuple(x - (n - 1 - j) for j, x in enumerate(new_beta) if x > n - 1 - j)
        total += (-1) ** height * _rim_hook_character(new_lam, rest)
    return total


@cache
def character_table(d: int) -> dict[tuple, int]:
    """All values chi^lam_mu for lam, mu of size d, keyed by (lam, mu); read-only."""
    parts = partitions_of(d)
    return {(lam, mu): _rim_hook_character(lam, mu) for lam in parts for mu in parts}


def _weighted_partition_sum(label, d: int, row_weight) -> Fraction:
    """sum over lam of d of row_weight(lam) prod_i p_{k_i+1}(lam), over prod_i (k_i+1)!."""
    total = Fraction(0)
    for lam in partitions_of(d):
        total += row_weight(lam) * prod((shifted_power_sum(k + 1, lam) for k in label), start=1)
    return total / prod(factorial(k + 1) for k in label)


def partition_sum(label, d: int) -> Fraction:
    """The degree-d invariant as a Fraction sum over all p(d) partitions of d."""
    return _weighted_partition_sum(label, d, lambda lam: 1)


def gw_character_oracle(label, d: int) -> Fraction:
    """Character-sum evaluation of the degree-d descendent invariant.

    Each partition lam of d weighs sum over mu of d of (chi^lam_mu)^2 / z_mu.
    The 1/z weight sits on the conjugacy-class index mu (true row
    orthogonality), which is what reproduces the published values.
    """
    parts = partitions_of(d)
    table = character_table(d)

    def row_weight(lam):
        return sum(Fraction(table[lam, mu] ** 2, centralizer_order(mu)) for mu in parts)

    return _weighted_partition_sum(as_label(label), d, row_weight)

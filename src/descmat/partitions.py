"""Integer partitions, p(n), and the Bernoulli numbers.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  The enumeration order of
``partitions_of`` is frozen to decreasing lexicographic order, ``(n,)``
first and ``(1, ..., 1)`` last.  Every ground-set order and table index
in this package refers back to that order, so it is a documented contract
rather than an implementation detail.

The order-k shifted power sum of a partition lam is
sum_i [(lam_i - i + 1/2)^k - (-i + 1/2)^k] + c_k; the package tabulates
it in integers (:func:`descmat.descendents._scaled_power_sums`) and
takes only c_k = (1 - 2^-k) zeta(-k) from here.

All functions are pure and exact.  p(n) and the Bernoulli numbers are
prefix lists, ``_pcount`` and ``_bernoulli``, that grow through
:func:`_grown` under one lock, because list indices are positional;
neither step reads the other list.  The ``@cache`` memo is idempotent.
"""

import threading
from fractions import Fraction
from functools import cache
from math import comb

Partition = tuple[int, ...]


@cache
def _bounded_partitions(n: int, largest: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, largest), 0, -1):
        out.extend((first,) + rest for rest in _bounded_partitions(n - first, first))
    return tuple(out)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    return _bounded_partitions(n, n)


def partitions_min_two(k: int) -> tuple[Partition, ...]:
    """Partitions of k with every part >= 2, in the same frozen order.

    This list is the canonical ground-set order for the weight-k
    descendent matroid, so only positive even k is meaningful here.
    """
    if k < 2 or k % 2:
        raise ValueError(f"expected a positive even integer, got {k}")
    return tuple(lam for lam in partitions_of(k) if lam[-1] >= 2)


_pcount: list[int] = [1]
_bernoulli: list[Fraction] = [Fraction(1)]
_table_lock = threading.Lock()


def _grown(table: list, n: int, step) -> list:
    """``table`` once index n exists, each entry appended as ``step(table)``."""
    if len(table) <= n:
        with _table_lock:
            while len(table) <= n:
                table.append(step(table))
    return table


def _next_pcount(p: list[int]) -> int:
    """p(n) = sum (-1)^(j+1) p(m) over the pentagonal pairs (j, m) of n, j != 0."""
    return sum(p[m] if j % 2 else -p[m] for j, m in pentagonal_pairs(len(p)) if j)


def _next_bernoulli(b: list[Fraction]) -> Fraction:
    """B_n from sum_{j=0}^{n} C(n+1, j) B_j = 0."""
    n = len(b)
    return Fraction(-sum(comb(n + 1, j) * b[j] for j in range(n)), n + 1)


def partition_count(d: int) -> int:
    """p(d) by the pentagonal recurrence, independent of its cross-check ``partitions_of``."""
    if d < 0:
        raise ValueError("p(d) requires d >= 0")
    return _grown(_pcount, d, _next_pcount)[d]


def pentagonal_pairs(d: int) -> list[tuple[int, int]]:
    """All integer pairs (j, m) with 3j^2 - j + 2m = 2d and m >= 0.

    Equivalently m = d - j(3j-1)/2, one pair per generalized pentagonal
    number <= d.  Pairs come out in the zigzag order j = 0, 1, -1, 2, -2...
    """
    if d < 0:
        raise ValueError("pentagonal pairs require d >= 0")
    pairs = [(0, d)]
    j = 1
    while True:
        g_pos = j * (3 * j - 1) // 2
        g_neg = j * (3 * j + 1) // 2
        if g_pos > d:
            break
        pairs.append((j, d - g_pos))
        if g_neg <= d:
            pairs.append((-j, d - g_neg))
        j += 1
    return pairs


def bernoulli(k: int) -> Fraction:
    """Exact k-th Bernoulli number (B_1 = -1/2 convention)."""
    if k < 0:
        raise ValueError("Bernoulli numbers are indexed by k >= 0")
    return _grown(_bernoulli, k, _next_bernoulli)[k]


def pk_constant(k: int) -> Fraction:
    """Constant term c_k = -(1 - 2^-k) B_{k+1} / (k+1) of the order-k shifted
    power sum: c_1 = -1/24, and c_k = 0 exactly for even k."""
    if k < 1:
        raise ValueError("shifted power sums are indexed by k >= 1")
    return -(1 - Fraction(1, 2**k)) * bernoulli(k + 1) / (k + 1)

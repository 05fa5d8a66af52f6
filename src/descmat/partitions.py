"""Integer partitions and the combinatorial indexing built on them.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  The enumeration order of
``partitions_of`` is frozen to decreasing lexicographic order, ``(n,)``
first and ``(1, ..., 1)`` last.  Every ground-set order and table index
in this package refers back to that order, so it is a documented contract
rather than an implementation detail.

All functions are pure.  The memo tables are append-only and their writes
are idempotent, so racing first calls at worst recompute equal values.
"""

import threading
from functools import cache

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
_pcount_lock = threading.Lock()


def partition_count(d: int) -> int:
    """p(d) via the pentagonal-number recurrence.

    Deliberately independent of ``partitions_of`` so the two can be
    cross-checked against each other.  The prefix cache grows under a
    lock: list indices are positional, so appends must not race.
    """
    if d < 0:
        raise ValueError("p(d) requires d >= 0")
    if len(_pcount) <= d:
        with _pcount_lock:
            _extend_pcount(d)
    return _pcount[d]


def _extend_pcount(d: int) -> None:
    while len(_pcount) <= d:
        n = len(_pcount)
        total = 0
        j = 1
        while True:
            g = j * (3 * j - 1) // 2
            if g > n:
                break
            sign = -1 if j % 2 == 0 else 1
            total += sign * _pcount[n - g]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * _pcount[n - g2]
            j += 1
        _pcount.append(total)


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

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from descmat.partitions import partition_count, partitions_min_two, partitions_of, pentagonal_pairs
from oracles import as_partition, centralizer_order


def test_partitions_of_trivial_cases():
    assert partitions_of(0) == ((),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def test_partitions_of_twelve_count_matches_recurrence():
    # p(12) via the pentagonal recurrence, cross-checked against the
    # explicit enumeration.
    assert partition_count(12) == 77
    assert len(partitions_of(12)) == 77


@given(st.integers(min_value=0, max_value=28))
def test_enumeration_agrees_with_recurrence(n):
    assert len(partitions_of(n)) == partition_count(n)


@given(st.integers(min_value=0, max_value=24))
def test_enumeration_is_valid_and_ordered(n):
    parts = partitions_of(n)
    assert len(set(parts)) == len(parts)
    for lam in parts:
        assert sum(lam) == n
        assert all(lam[i] >= lam[i + 1] >= 1 for i in range(len(lam) - 1))
    # decreasing lexicographic order, (n,) first, all-ones last
    assert list(parts) == sorted(parts, reverse=True)
    if n:
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n


def test_min_two_is_the_filtered_sublist():
    for k in (2, 4, 6, 8, 10, 12, 14):
        expected = tuple(p for p in partitions_of(k) if p and min(p) >= 2)
        assert partitions_min_two(k) == expected


def test_min_two_frozen_order_weight_eight():
    assert partitions_min_two(8) == (
        (8,),
        (6, 2),
        (5, 3),
        (4, 4),
        (4, 2, 2),
        (3, 3, 2),
        (2, 2, 2, 2),
    )


def test_min_two_sizes():
    assert partitions_min_two(2) == ((2,),)
    assert len(partitions_min_two(12)) == 21


@pytest.mark.parametrize("bad", [0, 3, 7, -2])
def test_min_two_rejects_odd_or_nonpositive(bad):
    with pytest.raises(ValueError):
        partitions_min_two(bad)


def _cycle_type(perm):
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_centralizer_small_cases():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((5,)) == 5
    assert centralizer_order(()) == 1
    # (2, 1): |S_3| / |class of a transposition| computed by brute force
    class_size = sum(
        1 for perm in permutations(range(3)) if _cycle_type(perm) == (2, 1)
    )
    assert centralizer_order((2, 1)) == 6 // class_size == 2


@pytest.mark.parametrize("d", range(1, 9))
def test_class_sizes_partition_the_group(d):
    from math import factorial

    total = sum(factorial(d) // centralizer_order(mu) for mu in partitions_of(d))
    assert total == factorial(d)


def test_pentagonal_pairs_examples():
    assert pentagonal_pairs(0) == [(0, 0)]
    assert pentagonal_pairs(1) == [(0, 1), (1, 0)]
    assert pentagonal_pairs(2) == [(0, 2), (1, 1), (-1, 0)]


@given(st.integers(min_value=0, max_value=60))
def test_pentagonal_pairs_cover_each_index_once(d):
    pairs = pentagonal_pairs(d)
    js = [j for j, _ in pairs]
    assert len(set(js)) == len(js)
    for j, m in pairs:
        assert 3 * j * j - j + 2 * m == 2 * d
        assert m >= 0
    # every j with pentagonal number <= d shows up
    expected = {j for j in range(-d - 1, d + 2) if j * (3 * j - 1) // 2 <= d}
    assert set(js) == expected


def test_as_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, 0))

from fractions import Fraction
from math import factorial

import pytest

from descmat.descendents import gw_invariant
from descmat.matroid import descendent_labels
from descmat.partitions import partitions_of
from oracles import centralizer_order, character, character_table, gw_character_oracle


def hook_length_dimension(lam):
    """Independent dimension oracle: d! over the product of hook lengths."""
    lam = tuple(lam)
    conj = [sum(1 for part in lam if part > i) for i in range(lam[0])] if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j) + (conj[j] - i) - 1
    return factorial(sum(lam)) // hooks


def test_trivial_and_sign_characters():
    assert character((3,), (2, 1)) == 1
    assert character((1, 1), (2,)) == -1
    for d in range(1, 7):
        for mu in partitions_of(d):
            assert character((d,), mu) == 1
            assert character((1,) * d, mu) == (-1) ** (d - len(mu))


def test_dimension_matches_hook_length_formula():
    assert character((2, 1), (1, 1, 1)) == 2 == hook_length_dimension((2, 1))
    for d in range(1, 8):
        ones = (1,) * d
        for lam in partitions_of(d):
            assert character(lam, ones) == hook_length_dimension(lam)


def test_size_mismatch_is_rejected():
    with pytest.raises(ValueError):
        character((2, 1), (2,))


def test_character_table_materializes_all_pairs():
    table = character_table(5)
    parts = partitions_of(5)
    assert set(table) == {(lam, mu) for lam in parts for mu in parts}
    assert table[((5,), (5,))] == 1


@pytest.mark.parametrize("d", range(1, 9))
def test_row_orthogonality(d):
    parts = partitions_of(d)
    table = character_table(d)
    for lam in parts:
        total = sum(
            Fraction(table[(lam, mu)] ** 2, centralizer_order(mu)) for mu in parts
        )
        assert total == 1


@pytest.mark.parametrize("d", range(1, 9))
def test_column_orthogonality(d):
    parts = partitions_of(d)
    table = character_table(d)
    for mu in parts:
        assert sum(table[(lam, mu)] ** 2 for lam in parts) == centralizer_order(mu)


def test_oracle_published_value():
    assert gw_character_oracle((2, 2), 3) == Fraction(166577809, 11059200)


def test_oracle_degree_zero_single_insertion():
    assert gw_character_oracle((0,), 0) == Fraction(-1, 24)


def test_oracle_agrees_with_fast_evaluator_smallish():
    # the exhaustive weight <= 10, d <= 8 sweep lives in the acceptance
    # suite; spot-check a representative slice here
    for k in (2, 4, 6, 8):
        for label in descendent_labels(k):
            for d in range(5):
                assert gw_character_oracle(label, d) == gw_invariant(label, d)

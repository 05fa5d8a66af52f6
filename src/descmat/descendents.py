"""Stationary descendent series of an elliptic curve.

A descendent label is the multiset of insertion orders k_i >= 0, stored
as a descending tuple; its weight is sum(k_i + 2).  By the Bloch-Okounkov
theorem the bracket series (q)_inf * sum_d <tau_label>_d q^d of an
even-weight label is the weight-k quasimodular form sum_i c_i M_i over
the Eisenstein monomials M_i, and every series of a label is read from
that form.  Let base(k) = :func:`~descmat.quasimodular.base_order`.

* The coordinates c_i come from partition totals.  The degree-d
  invariant is the partition sum

      sum over partitions lam of d of prod_i p_{k_i+1}(lam) / prod_i (k_i+1)!

  (the character double sum collapses by row orthogonality), taken in
  integers: with N_j = lcm(2^j, denominator of c_j), the integers
  N_j * p_j(lam) are tabulated once per (j, d) and shared by every
  label, so the total t_d = D_label * <tau_label>_d, D_label being the
  label's shared denominator, is a sum of integer products.  The totals
  for d <= base(k), times (q)_inf, are the bracket numerators the
  factored monomial solver divides once per coordinate.
* :func:`bracket_series` is the form to any order, a memoized
  :class:`~descmat.qseries.QSeries` of integer numerators F over one
  denominator D.  A degree-d read takes it at the least order
  base(k) * 2^j >= d, one form per doubling of a degree sweep, and
  :func:`gw_invariant` is the form divided by (q)_inf there: one
  integer dot product sum_m F_m p(d - m) over D, in every degree.
  The pair (F[d], D) of a (label, degree) is memoized once more, in
  :func:`_degree_reads`, for readers that take the coefficient itself,
  such as tau from a decomposition, whose labels many decompositions
  share.

The form of an odd-weight label is 0: conjugation gives
p_k(lam') = (-1)^(k+1) p_k(lam), because the constant c_k vanishes for
even k, so prod_i p_{k_i+1} changes sign under conjugation exactly when
sum_i k_i, hence the weight, is odd, and the sum over all partitions of
d, which conjugation permutes, is its own negative.  The form of the
empty label is 1, so its invariants are the partition numbers p(d).

The oracles live in the tests, not here: the same sum in Fractions
checks the integer kernel and the lift, and the character double sum
checks that sum.
"""

from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod
from operator import mul

from .linalg import _over_common_denominator
from .partitions import partition_count, partitions_of, pk_constant
from .qseries import QSeries, convolve, euler_function
from .quasimodular import (
    EisensteinMonomial,
    _monomial_columns,
    _monomial_solver,
    base_order,
    eisenstein_monomials,
)

DescendentLabel = tuple[int, ...]


def as_label(insertions) -> DescendentLabel:
    """Canonical descending tuple of nonnegative insertion orders."""
    ks = tuple(sorted(map(int, insertions), reverse=True))
    if ks and ks[-1] < 0:
        raise ValueError(f"insertion orders must be nonnegative: {ks}")
    return ks


def weight(label) -> int:
    """Weight sum(k_i + 2) of a label; 0 only for the empty label."""
    return sum(k + 2 for k in label)


def gw_invariant(label, d: int) -> Fraction:
    """Degree-d stationary descendent invariant, as an exact rational.

    The label's form F over D from :func:`_form_reaching`, divided by
    (q)_inf: sum_m F_m p(d - m) over D.
    """
    form = _form_reaching(as_label(label), d)
    counts = map(partition_count, range(d, -1, -1))
    return Fraction(sum(map(mul, form.nums, counts)), form.den)


def _partition_total(label: DescendentLabel, d: int) -> int:
    """The integer sum over partitions lam of d of prod_i N_{k_i+1} p_{k_i+1}(lam).

    It is ``_label_scale(label)`` times the degree-d invariant.  Each 0 in the
    label is the factor N_1 p_1(lam) = 24d - 1, the same for every lam.
    """
    zeros = label.count(0)
    rows = [_scaled_power_sums(k + 1, d) for k in label[: len(label) - zeros]]
    return (sum(map(prod, zip(*rows))) if rows else partition_count(d)) * (24 * d - 1) ** zeros


def _label_scale(label: DescendentLabel) -> int:
    """D_label = prod_i N_{k_i+1} (k_i+1)!, the denominator the totals share."""
    return prod(_power_sum_scale(k + 1) * factorial(k + 1) for k in label)


@cache
def _power_sum_scale(j: int) -> int:
    """N_j = lcm(2^j, denominator of c_j), which makes N_j * p_j integral."""
    return lcm(2**j, pk_constant(j).denominator)


@cache
def _scaled_power_sums(j: int, d: int) -> tuple[int, ...]:
    """N_j * p_j(lam) for every partition lam of d, in the frozen order.

    Taking the last box, of content c, off lam leaves the partition lam-
    of d - 1 that :func:`_last_boxes` names, and
    p_j(lam) - p_j(lam-) = (c + 1/2)^j - (c - 1/2)^j, the constant c_j
    cancelling.  So each entry is one entry of the degree-(d - 1) row
    plus (N_j / 2^j) * ((2c + 1)^j - (2c - 1)^j), from N_j * c_j at d = 0.
    """
    if d == 0:
        return (int(pk_constant(j) * _power_sum_scale(j)),)
    parents = _scaled_power_sums(j, d - 1)
    num_scale = _power_sum_scale(j) >> j
    # a box's content c runs over 1 - d .. d - 1, and its step is steps[c + d - 1]
    steps = [num_scale * ((2 * c + 1) ** j - (2 * c - 1) ** j) for c in range(1 - d, d)]
    return tuple(parents[p] + steps[c + d - 1] for p, c in _last_boxes(d))


@cache
def _last_boxes(d: int) -> tuple[tuple[int, int], ...]:
    """(parent, content) for each partition lam of d >= 1, in the frozen order.

    The last box of lam ends its last row l, at content lam_l - l; taking
    it off leaves the partition ``partitions_of(d - 1)[parent]``.
    """
    index = {lam: i for i, lam in enumerate(partitions_of(d - 1))}
    boxes = []
    for lam in partitions_of(d):
        last = lam[-1]
        parent = lam[:-1] + (last - 1,) if last > 1 else lam[:-1]
        boxes.append((index[parent], last - len(lam)))
    return tuple(boxes)


def bracket_series(label, order: int) -> QSeries:
    """(q)_inf * sum_d <tau_label>_d q^d, truncated at ``order``."""
    return _bracket_series(as_label(label), order)


@cache
def _bracket_series(label: DescendentLabel, order: int) -> QSeries:
    """The form sum_i c_i M_i; 0 for an odd weight and 1 for the empty label.

    M_i is the integer column N_i over s_i; with the c_i / s_i put over one
    denominator D as w_i, the form is the integer series sum_i w_i N_i over D.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if weight(label) % 2 or not label:
        return QSeries([int(not label)], order=order)
    columns, scales = _monomial_columns(weight(label), order)
    weights, den = _over_common_denominator(
        [c / s for c, s in zip(_eisenstein_coordinates(label), scales)]
    )
    return QSeries([sum(map(mul, weights, row)) for row in zip(*columns)], den=den)


def _form_reaching(label: DescendentLabel, d: int) -> QSeries:
    """The label's form at the least order base(k) * 2^j >= d, where degree d is read.

    Every degree-d read of a label takes this form; the base of an odd
    weight k is that of k - 1.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    k = weight(label)
    base = base_order(k - k % 2)
    return _bracket_series(label, base << (max(d - 1, 0) // base).bit_length())


@cache
def _degree_reads(label: tuple, d: int) -> tuple[int, int]:
    """(F[d], D) of the label's form, keyed by the tuple as the caller holds it."""
    form = _form_reaching(as_label(label), d)
    return form.nums[d], form.den


def eisenstein_coordinates(label) -> tuple[Fraction, ...]:
    """Full coordinate vector of the bracket series in the weight-k basis.

    Weight-k monomial order, zeros kept; solved and checked at base(k).
    """
    lab = as_label(label)
    if not lab:
        raise ValueError("the empty label has no Eisenstein expansion")
    return _eisenstein_coordinates(lab)


@cache
def _eisenstein_coordinates(label: DescendentLabel) -> tuple[Fraction, ...]:
    k = weight(label)
    base = base_order(k)
    totals = [_partition_total(label, d) for d in range(base + 1)]
    bracket = convolve(euler_function(base).nums, totals)
    return _monomial_solver(k, base)(bracket, _label_scale(label))


def to_eisenstein(label) -> dict[EisensteinMonomial, Fraction]:
    """Nonzero Eisenstein coordinates of the bracket series, as a mapping."""
    lab = as_label(label)
    coords = eisenstein_coordinates(lab)
    return {
        mono: coeff
        for mono, coeff in zip(eisenstein_monomials(weight(lab)), coords)
        if coeff
    }

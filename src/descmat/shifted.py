"""Bernoulli numbers and the constants c_k of the shifted power sums.

The order-k shifted power sum of a partition lam is
sum_i [(lam_i - i + 1/2)^k - (-i + 1/2)^k] + c_k.  The package tabulates
it over all partitions of d in integers
(:func:`descmat.descendents._scaled_power_sums`) and needs only c_k from
here.  Everything is exact rational arithmetic, so downstream equality
tests can be bit-exact.
"""

import threading
from fractions import Fraction
from math import comb

_bernoulli: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli(k: int) -> Fraction:
    """Exact k-th Bernoulli number (B_1 = -1/2 convention).

    Computed by the convolution recurrence
    sum_{j=0}^{n} C(n+1, j) B_j = 0, cached prefix-wise under a lock
    (list indices are positional, so appends must not race).
    """
    if k < 0:
        raise ValueError("Bernoulli numbers are indexed by k >= 0")
    if len(_bernoulli) <= k:
        with _bernoulli_lock:
            while len(_bernoulli) <= k:
                n = len(_bernoulli)
                acc = sum(comb(n + 1, j) * _bernoulli[j] for j in range(n))
                _bernoulli.append(Fraction(-acc, n + 1))
    return _bernoulli[k]


def pk_constant(k: int) -> Fraction:
    """Constant term of the order-k shifted power sum.

    c_k = -(1 - 2^-k) B_{k+1} / (k+1), i.e. (1 - 2^-k) * zeta(-k).  In
    particular c_1 = -1/24 and c_k = 0 exactly for even k.
    """
    if k < 1:
        raise ValueError("shifted power sums are indexed by k >= 1")
    return -(1 - Fraction(1, 2**k)) * bernoulli(k + 1) / (k + 1)


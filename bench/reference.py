"""Reference computations made apart from the program under test.

Nothing here imports descmat.  Each function recomputes, by its own and
deliberately plain route, a value the benchmark compares the program's
output against:

* tau(n) from the product q * prod(1 - q^n)^24, in integers;
* descendent invariants from the shifted-symmetric power sums, summed over
  partitions enumerated here;
* the Eisenstein series E2, E4, E6 from divisor sums, and products of them;
* the dimension of the weight-k quasimodular space, as the number of
  partitions of k/2 into parts <= 3;
* the Tutte polynomial of a uniform matroid U(r, n) from subset sizes;
* determinants modulo a prime and exactly, for the weight-12 dependent
  7-subsets (see ``rebuild_reference.py``).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
W12_DEPENDENT_FILE = DATA_DIR / "w12_dependent.txt"
W12_GROUND = 21
W12_RANK = 7
W12_PUBLISHED_BASES = 102670

# Published base counts of the descendent matroids.
PUBLISHED_BASES = {8: 34, 10: 730, 12: W12_PUBLISHED_BASES}
# Sizes of the curated uniform restrictions in weights 14, 16, 18.
NAMED_RESTRICTION_SIZES = {14: 10, 16: 14, 18: 16}


# -- series ---------------------------------------------------------------


def poly_mul(a, b, order):
    """Product of two coefficient lists, truncated after q^order."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def tau_table(order: int) -> tuple[int, ...]:
    """tau(0..order) as coefficients of q * prod_{n>=1} (1 - q^n)^24."""
    euler = [1] + [0] * order
    for n in range(1, order + 1):
        # multiply by (1 - q^n) in place, highest power first
        for m in range(order, n - 1, -1):
            euler[m] -= euler[m - n]
    power = [1] + [0] * order
    for _ in range(24):
        power = poly_mul(power, euler, order)
    return tuple([0] + power[:order])


def tau(n: int) -> int:
    return tau_table(max(n, 8))[n]


def sigma(n: int, power: int) -> int:
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """B_k with B_1 = -1/2, by the Akiyama-Tanigawa algorithm."""
    a = [Fraction(0)] * (k + 1)
    for m in range(k + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0] if k != 1 else Fraction(-1, 2)


def eisenstein(k: int, order: int) -> list[Fraction]:
    """-B_k/(2k) + sum_n sigma_{k-1}(n) q^n."""
    return [-bernoulli(k) / (2 * k)] + [Fraction(sigma(n, k - 1)) for n in range(1, order + 1)]


def euler_product(order: int) -> list[int]:
    """prod_{n>=1} (1 - q^n), truncated after q^order."""
    out = [1] + [0] * order
    for n in range(1, order + 1):
        for m in range(order, n - 1, -1):
            out[m] -= out[m - n]
    return out


def monomials(k: int) -> list[tuple[int, int, int]]:
    """Exponents (a, b, c) of E2^a E4^b E6^c of weight k, E6-heaviest first."""
    out = []
    for c in range(k // 6, -1, -1):
        for b in range((k - 6 * c) // 4, -1, -1):
            out.append(((k - 6 * c - 4 * b) // 2, b, c))
    return out


def monomial_series(exps, order: int) -> list[Fraction]:
    series = [Fraction(1)] + [Fraction(0)] * order
    for weight, e in zip((2, 4, 6), exps):
        for _ in range(e):
            series = poly_mul(series, eisenstein(weight, order), order)
    return series


def qm_dimension(k: int) -> int:
    """Number of partitions of k/2 into parts <= 3, by enumeration."""
    half = k // 2
    return sum(
        1
        for c in range(half // 3 + 1)
        for b in range((half - 3 * c) // 2 + 1)
    )


# -- partitions and invariants ---------------------------------------------


def partitions(n: int, largest: int | None = None):
    """Partitions of n in decreasing lexicographic order."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def ground_labels(k: int, positive: bool = False) -> list[tuple[int, ...]]:
    """Weight-k descendent labels: partitions of k with parts >= 2, minus 2."""
    labels = [tuple(p - 2 for p in lam) for lam in partitions(k) if lam[-1] >= 2]
    return [lab for lab in labels if lab[-1] > 0] if positive else labels


def shifted_power_sum(k: int, lam) -> Fraction:
    """sum_i [(lam_i - i + 1/2)^k - (-i + 1/2)^k] + (1 - 2^-k) zeta(-k)."""
    half = Fraction(1, 2)
    total = sum(
        (part - i + half) ** k - (-i + half) ** k for i, part in enumerate(lam, start=1)
    )
    zeta = -bernoulli(k + 1) / (k + 1)
    return total + (1 - Fraction(1, 2**k)) * zeta


def gw_invariant(label, d: int) -> Fraction:
    denominator = 1
    for k in label:
        denominator *= factorial(k + 1)
    total = Fraction(0)
    for lam in partitions(d):
        term = Fraction(1)
        for k in label:
            term *= shifted_power_sum(k + 1, lam)
        total += term
    return total / denominator


def bracket_series(label, order: int) -> list[Fraction]:
    """(q)_inf * sum_d <tau_label>_d q^d, truncated after q^order."""
    inner = [gw_invariant(label, d) for d in range(order + 1)]
    return poly_mul(euler_product(order), inner, order)


# -- matroids --------------------------------------------------------------


def uniform_tutte(r: int, n: int) -> dict[tuple[int, int], int]:
    """Tutte polynomial of U(r, n) as {(i, j): coeff}, from subset sizes.

    T = sum_s C(n, s) (x - 1)^(r - min(s, r)) (y - 1)^(s - min(s, r)).
    """
    acc: dict[tuple[int, int], int] = {}
    for s in range(n + 1):
        corank, nullity = r - min(s, r), s - min(s, r)
        for i in range(corank + 1):
            for j in range(nullity + 1):
                c = comb(n, s) * comb(corank, i) * comb(nullity, j)
                c *= (-1) ** (corank - i + nullity - j)
                acc[(i, j)] = acc.get((i, j), 0) + c
    return {key: c for key, c in acc.items() if c}


def integer_columns(columns) -> list[list[int]]:
    """Clear each column's denominators; column scaling keeps dependence."""
    out = []
    for col in columns:
        fr = [Fraction(x) for x in col]
        mult = 1
        for f in fr:
            mult = mult * f.denominator // _gcd(mult, f.denominator)
        out.append([int(f * mult) for f in fr])
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def det_mod(rows, p: int) -> int:
    """Determinant of a square integer matrix modulo the prime p."""
    m = [[x % p for x in row] for row in rows]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        inv = pow(m[c][c], p - 2, p)
        det = det * m[c][c] % p
        for i in range(c + 1, n):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return det % p


def det_exact(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def dependent_subsets(columns, r: int, prime: int = 2**61 - 1) -> list[int]:
    """Bitmasks of the r-subsets of columns whose r x r minor vanishes.

    Requires exactly r rows.  A minor that is nonzero modulo the prime is
    nonzero; every zero modulo the prime is confirmed by an exact
    determinant, and a zero that does not confirm is not dependent.
    """
    ints = integer_columns(columns)
    if any(len(col) != r for col in ints):
        raise ValueError("dependent_subsets needs square r x r minors")
    out = []
    for idxs in combinations(range(len(ints)), r):
        rows = [[ints[j][i] for j in idxs] for i in range(r)]
        if det_mod(rows, prime) == 0 and det_exact(rows) == 0:
            out.append(sum(1 << j for j in idxs))
    return out


def independent_subsets_count(columns, r: int) -> int:
    return comb(len(columns), r) - len(dependent_subsets(columns, r))


def load_w12_dependent() -> frozenset[int]:
    """The committed list of dependent 7-subsets of the weight-12 matroid.

    One hexadecimal bitmask per line over the 21 ground-set indices.  The
    list is checked on load: every mask has seven bits inside the ground
    set, and C(21, 7) minus its length is the published 102 670.
    """
    masks = [int(line, 16) for line in W12_DEPENDENT_FILE.read_text().split()]
    dependent = frozenset(masks)
    if len(dependent) != len(masks):
        raise ValueError("the dependent-subset list repeats a subset")
    if any(m >> W12_GROUND or bin(m).count("1") != W12_RANK for m in masks):
        raise ValueError("the dependent-subset list holds a mask that is not a 7-subset")
    if comb(W12_GROUND, W12_RANK) - len(dependent) != W12_PUBLISHED_BASES:
        raise ValueError("the dependent-subset list does not leave 102 670 bases")
    return dependent


def restricted_bases_count(dependent, keep_mask: int, r: int = W12_RANK) -> int:
    """Bases of the weight-12 matroid restricted to the indices in keep_mask."""
    n = bin(keep_mask).count("1")
    inside = sum(1 for m in dependent if m & keep_mask == m)
    return comb(n, r) - inside

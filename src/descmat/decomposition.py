"""Decompositions of the discriminant form and tau-function evaluations.

Two flavours of decomposition:

* linear — the discriminant written over a basis of weight-12 descendent
  series, one decomposition per basis of the positive restriction; the
  scale of each is the least positive integer clearing all denominators,
  recomputed here rather than read from anywhere.  The table takes one
  particular solution, from the factored columns of its first basis,
  and every row, the first included, is that solution plus the kernel
  vector, from the matroid's dual, that cancels it off the basis: a
  small integer system, since the complement of a basis is a basis of
  the dual.  A one-off solve on each basis is the route's oracle.
* polynomial — the discriminant (or any weight-k form, a q-series
  target read at base(k)) written in monomials of one of the eight
  generator triples in weights 2, 4, 6.

On top of the linear decompositions sits the pentagonal-pair evaluation
of tau(d), one integer sum over the basis labels' forms, which is
cross-checked against a divisor-sum closed form and the direct
q-expansion.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

from .descendents import (
    DescendentLabel,
    _degree_read,
    as_label,
    bracket_series,
    eisenstein_coordinates,
    weight,
)
from .linalg import _over_common_denominator, _primitive, _solve, factor_columns
from .matroid import descendent_matrix
from .qseries import QSeries, discriminant, sigma
from .quasimodular import (
    base_order,
    eisenstein_monomials,
    expand_in_eisenstein,
    qm_dimension,
)


class LinearDecomposition(NamedTuple):
    """Exact coefficients of a target form over a descendent basis."""

    basis: tuple[DescendentLabel, ...]
    coefficients: tuple[Fraction, ...]
    scale: int

    @property
    def scaled_coefficients(self) -> tuple[int, ...]:
        """Each coefficient times ``scale``; a non-integer product raises ValueError."""
        scaled = [c * self.scale for c in self.coefficients]
        for c, x in zip(self.coefficients, scaled):
            if x.denominator != 1:
                raise ValueError(f"scale {self.scale} does not clear the coefficient {c}")
        return tuple(int(x) for x in scaled)


def solve_linear(basis, target: QSeries, k: int) -> LinearDecomposition:
    """Express ``target`` over the given weight-k descendent labels.

    The basis must have qm_dimension(k) distinct weight-k labels.  The
    target is read once, as its Eisenstein coordinates (a series that is
    no weight-k form raises InconsistentSystemError), and solved over the
    labels' coordinates, since each label's bracket series is the form of
    its coordinates (Bloch-Okounkov).  A dependent basis raises
    SingularSystemError.
    """
    labels = tuple(as_label(b) for b in basis)
    if len(set(labels)) != len(labels):
        raise ValueError("basis labels must be distinct")
    dim = qm_dimension(k)
    if len(labels) != dim:
        raise ValueError(f"a weight-{k} basis needs {dim} elements, got {len(labels)}")
    bad = [lab for lab in labels if weight(lab) != k]
    if bad:
        raise ValueError(f"labels of wrong weight for k={k}: {bad}")
    coords = expand_in_eisenstein(target, k)
    columns = [_over_common_denominator(eisenstein_coordinates(lab)) for lab in labels]
    x = factor_columns(*zip(*columns))(coords)
    return LinearDecomposition(labels, x, lcm(*(c.denominator for c in x)))


def basis_key(indices) -> str:
    """Table key for a basis given 1-based ground-set indices, e.g. (1234567)."""
    return "(" + "".join(str(i) for i in sorted(indices)) + ")"


def all_positive_decompositions(k: int = 12) -> list[tuple[str, LinearDecomposition]]:
    """One discriminant decomposition per basis of the positive restriction.

    Weight 12 only.  The bases are the positive matroid's, in lexicographic
    order of their label indices, and each key lists the 1-based positions
    of its labels in that matroid's ground set.
    """
    if k != 12:
        raise ValueError("positive-basis discriminant tables exist for weight 12 only")
    m = descendent_matrix(k, positive=True)
    target = expand_in_eisenstein(discriminant(base_order(k)), k)
    return [
        (basis_key(i + 1 for i in idxs), dec) for idxs, dec in _basis_decompositions(m, target)
    ]


def _basis_decompositions(m, target_coords):
    """(indices, decomposition) of the target over every basis of ``m``, in order.

    Column j of ``m`` is s_j times the integer column C_j, and the rows of
    its dual span the kernel of C.  In the integer frame z_j = s_j x_j,
    one particular solution z0 comes from the factored integer columns of
    the first basis, which also raise :class:`InconsistentSystemError`
    for a target outside their span, and every solution is z0 + Kᵀy.
    The one over a basis B vanishes on the complement, and K restricted
    to the complement is square and invertible (it is a basis of the
    dual), so y solves that small integer system; every row, the first
    included (where y = 0), is read this way.  A singular system raises
    :class:`SingularSystemError`.
    """
    bases = m.bases()
    first = next(bases, None)
    if first is None:
        return
    index = m._index
    first_idxs = [index[label] for label in first]
    solve = factor_columns([m._int_columns[j] for j in first_idxs], [1] * len(first_idxs))
    z0 = dict(zip(first_idxs, solve(target_coords)))
    # z0 = nums / den0, and the kernel rows as primitive integer rows
    nums, den0 = _over_common_denominator([z0.get(j, 0) for j in range(len(m))])
    kernel = [_primitive(row)[0] for row in m.dual().matrix()]
    scales = m._scales
    for basis in chain((first,), bases):
        idxs = [index[label] for label in basis]
        inside = set(idxs)
        rows = [[*(row[c] for row in kernel), -nums[c]] for c in range(len(m)) if c not in inside]
        y, den, _ = _solve(rows, len(kernel))
        # z_j = (den·nums_j + Σ_i Y_i K_ij) / (den·den0), and x_j = z_j / s_j
        coefficients = tuple(
            Fraction(
                (den * nums[j] + sum(yi * row[j] for (yi,), row in zip(y, kernel)))
                * scales[j].denominator,
                den * den0 * scales[j].numerator,
            )
            for j in idxs
        )
        scale = lcm(*(c.denominator for c in coefficients))
        yield idxs, LinearDecomposition(basis, coefficients, scale)


GENERATOR_TRIPLES: dict[int, tuple[DescendentLabel, ...]] = {
    1: ((0,), (0, 0), (0, 0, 0)),
    2: ((0,), (0, 0), (1, 1)),
    3: ((0,), (0, 0), (2, 0)),
    4: ((0,), (0, 0), (4,)),
    5: ((0,), (2,), (0, 0, 0)),
    6: ((0,), (2,), (1, 1)),
    7: ((0,), (2,), (2, 0)),
    8: ((0,), (2,), (4,)),
}


class PolynomialDecomposition(NamedTuple):
    """A weight-k form written in monomials of one generator triple.

    ``terms`` maps exponent triples (a, b, c) of the weight-2, 4, 6
    generators to coefficients, in the frozen monomial order.
    """

    triple_type: int
    generators: tuple[DescendentLabel, ...]
    terms: tuple[tuple[tuple[int, int, int], Fraction], ...]

    def terms_dict(self) -> dict[tuple[int, int, int], Fraction]:
        return dict(self.terms)

    def factor_form(self) -> list[tuple[tuple[DescendentLabel, ...], Fraction]]:
        """Each monomial as an explicit tuple of generator labels.

        The exponent triple (a, b, c) becomes the weight-6 label repeated
        c times, then the weight-4 label b times, then the weight-2 label
        a times, matching how such products are usually displayed.
        """
        w2, w4, w6 = self.generators
        out = []
        for (a, b, c), coeff in self.terms:
            out.append(((w6,) * c + (w4,) * b + (w2,) * a, coeff))
        return out

    def reconstruct(self, order: int) -> QSeries:
        """Re-expand the decomposition as a q-series."""
        total = QSeries([0], order=order)
        w2, w4, w6 = (bracket_series(g, order) for g in self.generators)
        for (a, b, c), coeff in self.terms:
            if coeff:
                total = total + coeff * (w2**a * w4**b * w6**c)
        return total


def poly_basis_expand(triple_type: int, target: QSeries, k: int) -> PolynomialDecomposition:
    """Express the weight-k form ``target`` in the triple's weight-k monomials.

    The target and each monomial w2^a w4^b w6^c of the triple's bracket
    series at base(k) are read as Eisenstein coordinates, and the square
    system is solved exactly.  A target below base(k) raises
    InsufficientOrderError, and one that is no weight-k form raises
    InconsistentSystemError.  The monomial system being singular would
    contradict the triple generating the ring, so it is not handled
    specially and would surface as SingularSystemError.
    """
    if triple_type not in GENERATOR_TRIPLES:
        raise ValueError(f"triple type must be 1..8, got {triple_type}")
    generators = GENERATOR_TRIPLES[triple_type]
    coords = expand_in_eisenstein(target, k)
    exponents = [(m.a, m.b, m.c) for m in eisenstein_monomials(k)]
    w2, w4, w6 = (bracket_series(g, base_order(k)) for g in generators)
    columns = [
        _over_common_denominator(expand_in_eisenstein(w2**a * w4**b * w6**c, k))
        for a, b, c in exponents
    ]
    x = factor_columns(*zip(*columns))(coords)
    return PolynomialDecomposition(triple_type, generators, tuple(zip(exponents, x)))


def tau_direct(d: int) -> int:
    """tau(d) read off the q-expansion of the discriminant form."""
    if d < 1:
        raise ValueError("tau is defined for d >= 1")
    value = discriminant(d)[d]
    return int(value)


def tau_niebur(n: int) -> int:
    """Divisor-sum closed form for tau(n), exact integer arithmetic."""
    if n < 1:
        raise ValueError("tau is defined for n >= 1")
    s = [0] + [sigma(i, 1) for i in range(1, n)]
    correction = 24 * sum(
        i * i * (35 * i * i - 52 * i * n + 18 * n * n) * s[i] * s[n - i]
        for i in range(1, n)
    )
    return n**4 * sigma(n, 1) - correction


def tau_pentagonal(d: int, decomposition: LinearDecomposition) -> int:
    """tau(d) from a basis decomposition via pentagonal pairs.

    Sums (-1)^j a_b <tau_b>_m over all pairs 3j^2 - j + 2m = 2d and basis
    elements b, the sum over j first: label b's bracket coefficient S_b(d)
    gives tau(d) = sum_b a_b S_b(d).  With a_b = n_b / N and
    S_b(d) = F_b[d] / D_b read off label b's form, the sum is one integer
    over N·lcm(D_b).  The pair (F_b[d], D_b) is read once per label and
    degree, from the memo ``descendents._degree_reads``, and shared by
    every decomposition.  The result must be an integer; anything else
    means the decomposition's coefficients are corrupt, and is raised.
    """
    if d < 1:
        raise ValueError("tau is defined for d >= 1")
    nums, den = _over_common_denominator(decomposition.coefficients)
    reads = [_degree_read(label, d) for label in decomposition.basis]
    form_den = lcm(*(D for _, D in reads))
    total = sum(n * F * (form_den // D) for n, (F, D) in zip(nums, reads))
    den *= form_den
    if total % den:
        raise ArithmeticError(
            f"tau({d}) evaluated to the non-integer {Fraction(total, den)}: corrupt coefficients"
        )
    return total // den


class TauCheck(NamedTuple):
    name: str
    cases: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class TauReport(NamedTuple):
    max_d: int
    checks: tuple[TauCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


def _primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1) if n >= 0 else bytearray()
    primes = []
    for p in range(2, n + 1):
        if flags[p]:
            primes.append(p)
            for m in range(p * p, n + 1, p):
                flags[m] = 0
    return primes


def tau_relation_report(max_d: int) -> TauReport:
    """Numerical sweep of the classical tau properties up to max_d.

    Checks multiplicativity on coprime factorizations, the prime-power
    recursion, the prime bound tau(p)^2 <= 4 p^11 (exact squaring, no
    square roots), and nonvanishing.  Violations are collected, not
    raised: any hit means a bug upstream, and the report is the evidence.
    """
    if max_d < 2:
        raise ValueError("the report needs max_d >= 2")
    series = discriminant(max_d)
    tau = [0] + [int(series[n]) for n in range(1, max_d + 1)]

    mult_violations = []
    mult_cases = 0
    for m in range(2, max_d + 1):
        for n in range(m, max_d // m + 1):
            if gcd(m, n) == 1:
                mult_cases += 1
                if tau[m] * tau[n] != tau[m * n]:
                    mult_violations.append(f"tau({m})tau({n}) != tau({m * n})")

    primes = _primes_upto(max_d)
    hecke_violations = []
    hecke_cases = 0
    for p in primes:
        r = 1
        while p ** (r + 1) <= max_d:
            hecke_cases += 1
            lhs = tau[p ** (r + 1)]
            rhs = tau[p] * tau[p**r] - p**11 * tau[p ** (r - 1)]
            if lhs != rhs:
                hecke_violations.append(f"recursion fails at p={p}, r={r}")
            r += 1

    bound_violations = []
    for p in primes:
        if tau[p] * tau[p] > 4 * p**11:
            bound_violations.append(f"tau({p})^2 > 4*{p}^11")

    zero_violations = [f"tau({d}) = 0" for d in range(1, max_d + 1) if tau[d] == 0]

    return TauReport(
        max_d,
        (
            TauCheck("multiplicativity", mult_cases, tuple(mult_violations)),
            TauCheck("hecke_recursion", hecke_cases, tuple(hecke_violations)),
            TauCheck("prime_bound", len(primes), tuple(bound_violations)),
            TauCheck("nonvanishing", max_d, tuple(zero_violations)),
        ),
    )

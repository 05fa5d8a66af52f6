"""Linear matroids over the rationals, and the descendent matroids.

A :class:`LinearMatroid` wraps a labeled rational column matrix;
independence means exact linear independence, decided by fraction-free
integer elimination after clearing denominators column by column (column
scaling cannot change independence).  The weight-k descendent matroid is
built from the Eisenstein coordinate columns of every weight-k label in
the frozen ground-set order.

Bases, uniformity and the Tutte polynomial come from one subset
enumeration, a depth-first search over the ground set.  Each prefix
carries its rank and a primitive integer basis of the annihilator of its
span, so a child costs one dot product per basis vector, plus one exact
two-term update when its column leaves the span, instead of a fresh
elimination.  Before its first step it refuses work above
``ENUMERATION_CAP``, still counted as candidate subsets times rank³ (the
cost of one elimination per subset, about 0.15 µs·r³ on a 2-vCPU VM), so
that every accepted or refused enumeration keeps its verdict.

Uniformity is read on the smaller side: U(r, n)* = U(n − r, n), so when
2r > n the search runs over the dual, whose n − r rows come from the same
annihilator step folded over the matrix rows.
"""

from collections import Counter
from fractions import Fraction
from math import comb, gcd
from operator import mul

from .descendents import eisenstein_coordinates
from .linalg import int_row_rank, scale_row_to_int
from .partitions import partitions_min_two
from .qseries import join_signed
from .quasimodular import qm_dimension

DEFAULT_MAX_WEIGHT = 18
ENUMERATION_CAP = 2 * 10**8


class TuttePolynomial:
    """Bivariate integer polynomial with coefficients keyed by (i, j)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int]):
        self.coeffs = {key: int(c) for key, c in coeffs.items() if c}

    def __call__(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, TuttePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """(i, j, coeff), total degree descending then x-degree descending."""
        keys = sorted(self.coeffs, key=lambda ij: (-(ij[0] + ij[1]), -ij[0]))
        return [(i, j, self.coeffs[(i, j)]) for i, j in keys]

    def __str__(self):
        terms = []
        for i, j, c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or (i == 0 and j == 0):
                factors.append(str(abs(c)))
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            terms.append(("-" if c < 0 else "+", "*".join(factors)))
        return join_signed(terms)

    def __repr__(self):
        return f"TuttePolynomial({self.coeffs!r})"


class LinearMatroid:
    """Matroid of a labeled exact-rational column matrix.

    Values are immutable after construction; subset tests never mutate
    shared state, so instances are safe to use from several threads.
    """

    def __init__(self, columns, labels, nrows: int | None = None):
        columns = [tuple(Fraction(x) for x in col) for col in columns]
        labels = tuple(labels)
        if len(columns) != len(labels):
            raise ValueError("need exactly one label per column")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        heights = {len(col) for col in columns}
        if len(heights) > 1:
            raise ValueError("columns must share a common height")
        if heights:
            nrows = heights.pop()
        elif nrows is None:
            raise ValueError("an empty matroid needs an explicit row count")
        self.nrows = nrows
        self.columns = tuple(columns)
        self.labels = labels
        self._index = {label: i for i, label in enumerate(labels)}
        self._int_columns = tuple(tuple(scale_row_to_int(col)) for col in columns)
        self._rank: int | None = None

    def __len__(self):
        return len(self.labels)

    def __repr__(self):
        return (
            f"<LinearMatroid rank {self.rank()} on {len(self)} elements "
            f"over {self.nrows} coordinates>"
        )

    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Row-major copy of the representing matrix."""
        return tuple(
            tuple(col[i] for col in self.columns) for i in range(self.nrows)
        )

    def _indices_of(self, subset) -> list[int]:
        idxs = set()
        for label in subset:
            try:
                idxs.add(self._index[label])
            except KeyError:
                raise ValueError(f"unknown label: {label!r}") from None
        return sorted(idxs)

    def _subset_rank(self, idxs) -> int:
        return int_row_rank([self._int_columns[i] for i in idxs])

    def rank(self) -> int:
        if self._rank is None:
            self._rank = self._subset_rank(range(len(self)))
        return self._rank

    def is_independent(self, subset) -> bool:
        idxs = self._indices_of(subset)
        return self._subset_rank(idxs) == len(idxs)

    def _ranks(self, sizes):
        """(index tuple, rank) of the subsets of each size in ``sizes``.

        Each size's subsets come in lexicographic order; sizes may
        interleave.  Raises ValueError before the first step when the work
        exceeds the cap.
        """
        n, r = len(self), self.rank()
        candidates = sum(comb(n, s) for s in sizes)
        if candidates * r**3 > ENUMERATION_CAP:
            subsets = " + ".join(f"C({n}, {s})" for s in sizes)
            raise ValueError(
                f"enumeration capped: {subsets} = {candidates} subsets times "
                f"rank {r}³ is {candidates * r**3}, above {ENUMERATION_CAP}"
            )
        return _subset_ranks(self._int_columns, self.nrows, sizes)

    def bases(self):
        """All bases, in lexicographic order of label indices."""
        r = self.rank()
        for idxs, rank in self._ranks((r,)):
            if rank == r:
                yield tuple(self.labels[i] for i in idxs)

    def bases_count(self) -> int:
        r = self.rank()
        return sum(rank == r for _, rank in self._ranks((r,)))

    def tutte(self) -> TuttePolynomial:
        """Corank-nullity sum over all subsets, expanded once per (corank, nullity)."""
        r = self.rank()
        subsets = self._ranks(range(len(self) + 1))
        classes = Counter((r - rank, len(idxs) - rank) for idxs, rank in subsets)
        acc: Counter = Counter()
        for (corank, nullity), mult in classes.items():
            for i in range(corank + 1):
                ci = mult * comb(corank, i) * (-1) ** (corank - i)
                for j in range(nullity + 1):
                    acc[(i, j)] += ci * comb(nullity, j) * (-1) ** (nullity - j)
        return TuttePolynomial(acc)

    def restrict(self, subset) -> "LinearMatroid":
        """Restriction to a label subset, keeping the ground-set order."""
        keep = set(self._indices_of(subset))
        idxs = [i for i in range(len(self)) if i in keep]
        return LinearMatroid(
            [self.columns[i] for i in idxs],
            [self.labels[i] for i in idxs],
            nrows=self.nrows,
        )

    def dual(self) -> "LinearMatroid":
        """The dual matroid on the same labels, in the same order.

        Its rows are a basis of the kernel of this matrix, the annihilator
        of the row space, found by folding :func:`_extend` over the rows
        from the n×n identity.
        """
        n = len(self)
        kernel = _identity(n)
        for row in zip(*self._int_columns):
            _, kernel = _extend(kernel, row)
        return LinearMatroid(
            [tuple(a[j] for a in kernel) for j in range(n)],
            self.labels,
            nrows=len(kernel),
        )

    def is_uniform(self) -> tuple[int, int] | None:
        """(rank, size) when every rank-subset is a basis, else None.

        Above half the size the check runs on the dual, which is uniform
        exactly when this matroid is.
        """
        r, n = self.rank(), len(self)
        if 2 * r > n:
            uniform = self.dual().is_uniform() is not None
        else:
            uniform = all(rank == r for _, rank in self._ranks((r,)))
        return (r, n) if uniform else None


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _extend(basis, col):
    """(1, annihilator basis of the span plus ``col``), or (0, ``basis``).

    ``basis`` is a primitive integer basis of the annihilator of a span.
    If every dot aᵢ·col is zero, col lies in the span and the basis is
    returned as it is.  Otherwise, with the first nonzero dot t_p, the
    vectors t_p·aᵢ − tᵢ·a_p (i ≠ p), each divided by its content, are
    orthogonal to col and independent; a vector with tᵢ = 0 is aᵢ itself
    up to sign and is kept as it is.
    """
    dots = [sum(map(mul, a, col)) for a in basis]
    for p, tp in enumerate(dots):
        if tp:
            break
    else:
        return 0, basis
    ap = basis[p]
    reduced = []
    for i, (a, t) in enumerate(zip(basis, dots)):
        if i == p:
            continue
        if t:
            a = [tp * x - t * y for x, y in zip(a, ap)]
            g = gcd(*a)
            a = tuple(x // g for x in a) if g > 1 else tuple(a)
        reduced.append(a)
    return 1, tuple(reduced)


def _subset_ranks(columns, nrows: int, sizes):
    """(index tuple, rank) of every subset of ``columns`` with a size in ``sizes``.

    Explicit-stack depth-first search in lexicographic order.  A stack
    entry is a subset with the rank and annihilator basis of its prefix
    (the subset minus its last index; the identity for the empty prefix),
    which :func:`_extend` updates with the last column.  Subsets of the
    largest wanted size need only their dots.
    """
    n = len(columns)
    wanted = set(sizes)
    top = max(wanted)
    # a child of a size-d prefix must leave room to reach the next wanted size
    room = [min(s for s in wanted if s > d) - d for d in range(top)]
    stack = [((), _identity(nrows), 0)]
    while stack:
        idxs, basis, rank = stack.pop()
        if idxs:
            grew, basis = _extend(basis, columns[idxs[-1]])
            rank += grew
        size = len(idxs)
        if size in wanted:
            yield idxs, rank
        if size == top:
            continue
        children = range(idxs[-1] + 1 if idxs else 0, n - room[size] + 1)
        if size + 1 < top:
            stack += ((idxs + (c,), basis, rank) for c in reversed(children))
            continue
        # leaves need only their dots
        for c in children:
            col = columns[c]
            yield idxs + (c,), rank + any(sum(map(mul, a, col)) for a in basis)


def descendent_labels(k: int, positive: bool = False) -> tuple:
    """Weight-k ground-set labels in the frozen order.

    Labels are partitions of k with parts >= 2, shifted down by 2; the
    positive flag keeps only labels with every insertion > 0.
    """
    labels = tuple(
        tuple(part - 2 for part in parts) for parts in partitions_min_two(k)
    )
    if positive:
        labels = tuple(lab for lab in labels if lab[-1] > 0)
    return labels


def check_weight(k: int, max_weight: int) -> None:
    """Raise ValueError unless k is a positive even weight within the cap."""
    if k % 2 or k < 2:
        raise ValueError(f"weight must be a positive even integer, got {k}")
    if k > max_weight:
        raise ValueError(f"weight {k} above the configured cap {max_weight}")


def descendent_matrix(
    k: int, positive: bool = False, max_weight: int = DEFAULT_MAX_WEIGHT
) -> LinearMatroid:
    """The weight-k descendent matroid as a labeled coordinate matrix.

    Columns are Eisenstein coordinates of each ground-set label, rows in
    weight-k monomial order.  The weight cap is a desk-scale guard, not a
    mathematical limit; raise ``max_weight`` to go further.
    """
    check_weight(k, max_weight)
    labels = descendent_labels(k, positive)
    columns = [eisenstein_coordinates(lab) for lab in labels]
    return LinearMatroid(columns, labels, nrows=qm_dimension(k))


_NAMED_RESTRICTION_DROPS: dict[int, frozenset] = {
    14: frozenset({(3, 3, 2)}),
    16: frozenset({(4, 3, 3)}),
    18: frozenset({(4, 4, 4), (5, 4, 3), (5, 5, 2), (6, 3, 3)}),
}


def named_restriction(k: int) -> LinearMatroid:
    """The curated positive restrictions in weights 14, 16 and 18.

    Keeps the positive labels with at most three insertions and removes a
    short weight-specific list of three-point labels; the removals are
    forced by the uniform-matroid sizes these restrictions hit (10, 14
    and 16 elements respectively).  Each has rank above half its size,
    so :meth:`LinearMatroid.is_uniform` checks it on the dual.
    """
    try:
        drops = _NAMED_RESTRICTION_DROPS[k]
    except KeyError:
        raise ValueError(
            f"named restrictions exist for weights 14, 16, 18; got {k}"
        ) from None
    m = descendent_matrix(k, positive=True)
    keep = [lab for lab in m.labels if len(lab) <= 3 and lab not in drops]
    return m.restrict(keep)

"""Linear matroids over the rationals, and the descendent matroids.

A :class:`LinearMatroid` holds a labeled rational column matrix once:
each column is one positive rational scale times a primitive integer
column (:func:`~descmat.linalg._primitive`), and the rational columns and
the row-major matrix are views rebuilt from the two.  Independence means
exact linear independence, which no column scale changes, so every rank,
the dual (eliminated once, on first use) and the subset search below
read the integer columns alone and take the package's elimination
step, :func:`~descmat.linalg._pivot`.  The weight-k descendent matroid
is built from the Eisenstein coordinate columns of every weight-k label
in the frozen ground-set order.

Bases, basis counts, uniformity and the Tutte polynomial come from one
subset enumeration, a depth-first search over the ground set.  Each
prefix carries the rows of its eliminated column matrix, cut to the
columns after its last index, so a child's rank test is a lookup and
extending the prefix is one pivot step.  The last two levels take no
step: a prefix two short of the size sought is a group, which carries
its own rows, and a single or pair after it adds the rank of its
columns in those rows, read off minors.  A column has rank 1 when it is
nonzero; a pair of columns has rank 2 when one of its 2×2 minors is
nonzero, which in the two rows of an independent (r − 2)-prefix of a
rank-r matroid with r rows is x_a·y_b ≠ x_b·y_a.  Those rows meet no
other test, so the group's own step is the pivot's two-term update
without the content division.  Nor does a prefix ending at the last
column, which has no child, take a step: its column in the parent's rows
gives its rank.  Before its first step the search refuses work above
``ENUMERATION_CAP``, still counted as candidate subsets times rank³ (the
cost of one elimination per subset; full weight 12, at 4×10⁷, counts
its bases in about 0.25 s on a shared 2-vCPU VM), so that every
accepted or refused enumeration keeps its verdict.

Counts, uniformity and the Tutte polynomial read one tally of subsets by
(size, rank) off those groups, on the smaller side: when 2r > n, on the
dual, whose n − r rows come from the same pivot step.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

from .descendents import eisenstein_coordinates
from .linalg import _echelon, _pivot, _primitive, int_row_rank
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

    Column j is ``_scales[j]`` times the primitive integer column
    ``_int_columns[j]``.  Only the rank and the dual are set after
    construction, each once, and a race only computes the same value
    twice, so instances are safe to use from several threads.
    """

    def __init__(self, columns, labels, nrows: int | None = None):
        split = [_primitive(col) for col in columns]
        labels = tuple(labels)
        if len(split) != len(labels):
            raise ValueError("need exactly one label per column")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        heights = {len(ints) for ints, _ in split}
        if len(heights) > 1:
            raise ValueError("columns must share a common height")
        if heights:
            height = heights.pop()
            if nrows not in (None, height):
                raise ValueError(f"row count {nrows} is not the columns' height {height}")
            nrows = height
        elif nrows is None:
            raise ValueError("an empty matroid needs an explicit row count")
        elif nrows < 0:
            raise ValueError(f"row count must be nonnegative, got {nrows}")
        self.nrows = nrows
        self.labels = labels
        self._index = {label: i for i, label in enumerate(labels)}
        self._int_columns = tuple(tuple(ints) for ints, _ in split)
        self._scales = tuple(scale for _, scale in split)
        self._rank: int | None = None
        self._dual: LinearMatroid | None = None

    def __len__(self):
        return len(self.labels)

    def __repr__(self):
        return (
            f"<LinearMatroid rank {self.rank()} on {len(self)} elements "
            f"over {self.nrows} coordinates>"
        )

    @property
    def columns(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rational columns, each its scale times its integer column."""
        return tuple(tuple(s * x for x in col) for col, s in zip(self._int_columns, self._scales))

    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Row-major view of :attr:`columns`."""
        columns = self.columns
        return tuple(tuple(col[i] for col in columns) for i in range(self.nrows))

    def _indices_of(self, subset) -> list[int]:
        idxs = set()
        for label in subset:
            try:
                idxs.add(self._index[label])
            except KeyError:
                raise ValueError(f"unknown label: {label!r}") from None
        return sorted(idxs)

    def rank(self) -> int:
        if self._rank is None:
            self._rank = int_row_rank(self._int_columns)
        return self._rank

    def is_independent(self, subset) -> bool:
        idxs = self._indices_of(subset)
        return int_row_rank([self._int_columns[i] for i in idxs]) == len(idxs)

    def _check_cap(self, sizes) -> None:
        """Raise ValueError when the subsets of each size in ``sizes`` are above the work cap."""
        n, r = len(self), self.rank()
        candidates = sum(comb(n, s) for s in sizes)
        if candidates * r**3 > ENUMERATION_CAP:
            subsets = " + ".join(f"C({n}, {s})" for s in sizes)
            raise ValueError(
                f"enumeration capped: {subsets} = {candidates} subsets times "
                f"rank {r}³ is {candidates * r**3}, above {ENUMERATION_CAP}"
            )

    def _rank_counts(self, sizes):
        """(size, rank, multiplicity) triples counting the subsets of each size in ``sizes``.

        A :func:`_subset_groups` group with z nonzero and ``zeros`` zero later
        columns, and P independent pairs among them, has z singles at rank
        + 1 and ``zeros`` at rank, and P pairs at rank + 2, C(z, 2) − P +
        z·zeros at rank + 1 and C(zeros, 2) at rank; a count may be 0.
        Subsets that come alone are tallied after the groups (of the largest
        size, only the empty set comes alone).  When 2r > n the dual is
        searched and capped: a dual subset of size s and rank ρ* is the
        complement of a size-(n − s) subset of rank r − s + ρ*.
        """
        n, r = len(self), self.rank()
        if 2 * r > n:
            for s, rank, mult in self.dual()._rank_counts([n - s for s in sizes]):
                yield n - s, r - s + rank, mult
            return
        self._check_cap(sizes)
        wanted, alone = set(sizes), {}
        for idxs, rank, rows in _subset_groups(self._int_columns, self.nrows, sizes):
            size = len(idxs)
            if rows is None:
                alone[size, rank] = alone.get((size, rank), 0) + 1
                continue
            nonzero = _nonzero_columns(rows)
            z = len(nonzero)
            zeros = n - (idxs[-1] + 1 if idxs else 0) - z
            if size + 1 in wanted:
                yield size + 1, rank + 1, z
                yield size + 1, rank, zeros
            if size + 2 in wanted:
                pairs = sum(1 for _ in _independent_pairs(nonzero))
                yield size + 2, rank + 2, pairs
                yield size + 2, rank + 1, comb(z, 2) - pairs + z * zeros
                yield size + 2, rank, comb(zeros, 2)
        for (size, rank), mult in alone.items():
            yield size, rank, mult

    def bases(self):
        """All bases, in lexicographic order of label indices."""
        r, labels = self.rank(), self.labels
        self._check_cap((r,))
        for idxs, rank, rows in _subset_groups(self._int_columns, self.nrows, (r,)):
            if rows is None:  # the empty basis, when r = 0
                yield ()
            elif rank == len(idxs):  # an independent (r − 2)-prefix, or the root when r = 1
                prefix = tuple(labels[i] for i in idxs)
                later = labels[idxs[-1] + 1 :] if idxs else labels
                nonzero = _nonzero_columns(rows)
                if rank == r - 1:
                    yield from (prefix + (later[a],) for a, _ in nonzero)
                    continue
                yield from (prefix + (later[a], later[b]) for a, b in _independent_pairs(nonzero))

    def bases_count(self) -> int:
        r = self.rank()
        self._check_cap((r,))
        return sum(mult for _, rank, mult in self._rank_counts((r,)) if rank == r)

    def tutte(self) -> TuttePolynomial:
        """Corank-nullity sum over all subsets, expanded once per (corank, nullity)."""
        r, n = self.rank(), len(self)
        self._check_cap(range(n + 1))
        classes: Counter = Counter()
        for size, rank, mult in self._rank_counts(range(n + 1)):
            classes[r - rank, size - rank] += mult
        acc: Counter = Counter()
        for (corank, nullity), mult in classes.items():
            for i in range(corank + 1):
                ci = mult * comb(corank, i) * (-1) ** (corank - i)
                for j in range(nullity + 1):
                    acc[(i, j)] += ci * comb(nullity, j) * (-1) ** (nullity - j)
        return TuttePolynomial(acc)

    def restrict(self, subset) -> "LinearMatroid":
        """Restriction to a label subset, keeping the ground-set order."""
        idxs = self._indices_of(subset)
        return LinearMatroid(
            [[self._scales[i] * x for x in self._int_columns[i]] for i in idxs],
            [self.labels[i] for i in idxs],
            nrows=self.nrows,
        )

    def dual(self) -> "LinearMatroid":
        """The dual matroid on the same labels, in the same order, built once.

        Its rows are a primitive basis of the kernel of the integer column
        matrix C: the rows of [Cᵀ | Iₙ] left over once :func:`_echelon` has
        eliminated the first ``nrows`` columns.
        """
        if self._dual is None:
            n = len(self)
            rows = [[*col, *(int(i == j) for i in range(n))] for j, col in enumerate(self._int_columns)]
            _, rows = _echelon(rows, self.nrows)
            columns = [tuple(a[j] for a in rows) for j in range(n)]
            self._dual = LinearMatroid(columns, self.labels, nrows=len(rows))
        return self._dual

    def is_uniform(self) -> tuple[int, int] | None:
        """(rank, size) when every rank-subset is a basis, else None.

        The search stops at the first group that holds a dependent subset.
        """
        r, n = self.rank(), len(self)
        uniform = all(rank == r for _, rank, mult in self._rank_counts((r,)) if mult)
        return (r, n) if uniform else None


def _subset_groups(columns, nrows: int, sizes):
    """Every subset of ``columns`` with a size in ``sizes``, with its rank.

    Explicit-stack depth-first search in lexicographic order.  A prefix
    carries the rows of its eliminated column matrix, cut to the columns
    after its last index; :func:`_pivot` at the next index gives a child's
    rows and whether its rank grew, except for a child at the last index,
    whose rank grew exactly when its column is nonzero.  Prefixes stop two
    short of the largest wanted size (at the root when that size is 1 or
    2), and each such prefix comes as a group (idxs, rank, rows): its own
    rows, cut to the columns after its last index, which its step,
    :func:`_leaf_rows`, leaves without the content division.  idxs + (a,)
    and idxs + (a, b) then have rank + the rank of those columns in the
    rows, which :func:`_nonzero_columns` and :func:`_independent_pairs`
    read off minors, so the last two levels take no step.  A wanted subset that is itself a prefix comes alone,
    as (idxs, rank, None), ahead of its group; when the largest wanted
    size is 0 that is the empty set and there is no group.
    """
    n = len(columns)
    wanted = set(sizes)
    top = max(wanted)
    # a child of a size-d prefix must leave room to reach the next wanted size
    room = [min(s for s in wanted if s > d) - d for d in range(top)]
    # an entry holds its parent's rows, cut to the columns from ``start``
    stack = [((), [[col[i] for col in columns] for i in range(nrows)], 0, 0)]
    while stack:
        idxs, rows, rank, start = stack.pop()
        size = len(idxs)
        if idxs and idxs[-1] == n - 1:  # childless: its column is the parent's last
            rank += any(row[-1] for row in rows)
            rows = []
        elif idxs and size + 2 == top:  # a group's own step: its rows meet only minors
            grew, rows = _leaf_rows(rows, idxs[-1] - start)
            rank += grew
        elif idxs:
            pivot, rows = _pivot(rows, idxs[-1] - start)
            rank += pivot is not None
        if size in wanted:
            yield idxs, rank, None
        if size == top:
            continue
        first = idxs[-1] + 1 if idxs else 0
        if size + 2 >= top:
            yield idxs, rank, rows
            continue
        children = range(first, n - room[size] + 1)
        stack += ((idxs + (c,), rows, rank, first) for c in reversed(children))


def _leaf_rows(rows, c):
    """:func:`_pivot`'s two-term update at column ``c``, without the content division.

    Returns (whether column c is nonzero, the rows cut to the columns
    after c).  A group's rows only meet zero tests and 2×2 minors, which
    no nonzero row factor changes, so the rebuilt rows keep their content.
    """
    for p, row in enumerate(rows):
        if row[c]:
            break
    else:
        return False, [row[c + 1 :] for row in rows]
    tp, tail = rows[p][c], rows[p][c + 1 :]
    return True, [
        [tp * x - t * y for x, y in zip(row[c + 1 :], tail)] if (t := row[c]) else row[c + 1 :]
        for row in rows[:p] + rows[p + 1 :]
    ]


def _nonzero_columns(rows) -> list:
    """(c, column) for each nonzero column c of integer ``rows``: the columns of rank 1."""
    return [(c, col) for c, col in enumerate(zip(*rows)) if any(col)]


def _independent_pairs(columns):
    """(a, b), a < b, for each pair of :func:`_nonzero_columns` of rank 2.

    Two columns have rank 2 exactly when one of their 2×2 minors is
    nonzero: in two rows x and y, when x_a·y_b ≠ x_b·y_a.
    """
    if columns and len(columns[0][1]) == 2:  # the one minor, unrolled
        for k, (a, (xa, ya)) in enumerate(columns, 1):
            for b, (xb, yb) in columns[k:]:
                if xa * yb != xb * ya:
                    yield a, b
        return
    minors = list(combinations(range(len(columns[0][1])), 2)) if columns else []
    for k, (a, u) in enumerate(columns, 1):
        for b, v in columns[k:]:
            if any(u[i] * v[j] != u[j] * v[i] for i, j in minors):
                yield a, b


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
    so its basis count, uniformity and Tutte polynomial are read on the
    dual.
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

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
subset enumeration, a depth-first search over the ground set.  It
starts from the r coordinate rows that the rank's elimination pivots
on: the other rows are combinations of them, so no rank changes.  Each
prefix carries the rows of its eliminated column matrix, cut to the
columns after its last index, which represent the contraction by the
prefix: a child's rank test is a lookup, and extending the prefix is
one fraction-free pivot step that divides by the prefix's last pivot,
so every entry stays a minor of the columns.  A prefix ending at the
last column takes no step: its column in the parent's rows gives its
rank.  The search stops at leaves, which carry their own rows.  For one
size they are groups, three short of it, whose later singles, pairs and
triples add their rank in those rows, read off minors: in the three
rows of an independent (r − 3)-prefix, a triple (a, b, c) completes a
basis when (u_a × u_b)·u_c ≠ 0.  For every size they are tails,
prefixes whose rows have rank at most 1: t later columns add 1 when one
of them is nonzero in the rows, so binomials count each tail's
extensions.  Before its first step the search refuses work above
``ENUMERATION_CAP``, still priced as one elimination per candidate
subset, rank³ each (2^n·r³ for the Tutte polynomial), so that every
verdict stands; full weight 12, at 4×10⁷, counts its bases in about
0.13 s on a shared 2-vCPU Intel Xeon VM.

Counts and uniformity read the bases stream of the smaller side: when
2r > n, of the dual, whose n − r rows come from the same pivot step and
whose bases are the complements.  The Tutte polynomial is tallied by
(corank, nullity) on that side too, and read on the dual as
T(x, y) = T*(y, x).
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
    ``_int_columns[j]``.  Only the rank's pivot rows and the dual are
    set after construction, each once, and a race only computes the same
    value twice, so instances are safe to use from several threads.
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
        self._rank_rows: tuple[int, ...] | None = None
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
        if self._rank_rows is None:
            pivots, _ = _echelon(self._int_columns, self.nrows)
            self._rank_rows = tuple(i for i, pivot in enumerate(pivots) if pivot is not None)
        return len(self._rank_rows)

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

    def bases(self):
        """All bases, in lexicographic order of label indices."""
        r, labels = self.rank(), self.labels
        self._check_cap((r,))
        for idxs, rank, rows in _subset_groups(self._int_columns, self._rank_rows, r):
            if rows is None:  # the empty basis, when r = 0
                yield ()
            elif rank == len(idxs):  # an independent (r − 3)-prefix, or the root when r ≤ 3
                prefix = tuple(labels[i] for i in idxs)
                later = labels[idxs[-1] + 1 :] if idxs else labels
                found = _independent_subsets(rows, r - rank, later)
                yield from (prefix + subset for subset in found[r - rank - 1])

    def _smaller(self) -> "LinearMatroid":
        """The side of smaller rank: the dual when 2r > n, else the matroid itself."""
        return self.dual() if 2 * self.rank() > len(self) else self

    def bases_count(self) -> int:
        """The number of bases, listed on the smaller side: the dual's are their complements."""
        self._check_cap((self.rank(),))
        return sum(1 for _ in self._smaller().bases())

    def tutte(self) -> TuttePolynomial:
        """Corank-nullity sum over all subsets, expanded once per (corank, nullity).

        When 2r > n it is the dual's with x and y swapped, T(x, y) = T*(y, x).
        Otherwise every size is searched.  A prefix of size s and rank ρ
        that comes alone is one subset; a tail with m later columns, z of
        them zero in its rows, stands for C(z, t) subsets of size s + t and
        rank ρ and C(m, t) − C(z, t) of rank ρ + 1, for t = 0..m.
        """
        r, n = self.rank(), len(self)
        self._check_cap(range(n + 1))
        if (side := self._smaller()) is not self:
            return TuttePolynomial({(j, i): c for (i, j), c in side.tutte().coeffs.items()})
        tails: Counter = Counter()
        for idxs, rank, rows in _subset_groups(self._int_columns, self._rank_rows, None):
            m = 0 if rows is None else n - (idxs[-1] + 1 if idxs else 0)
            tails[len(idxs), rank, m, m - sum(map(any, zip(*rows or ())))] += 1
        classes: Counter = Counter()
        for (size, rank, m, z), mult in tails.items():
            for t in range(m + 1):
                classes[r - rank, size + t - rank] += mult * comb(z, t)
                classes[r - rank - 1, size + t - rank - 1] += mult * (comb(m, t) - comb(z, t))
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

        Its rows are a basis of the kernel of the integer column matrix C:
        the rows of [Cᵀ | Iₙ] left over once :func:`_echelon` has
        eliminated the first ``nrows`` columns, each made primitive, as
        those minors share a large common factor.
        """
        if self._dual is None:
            n = len(self)
            rows = [[*col, *(int(i == j) for i in range(n))] for j, col in enumerate(self._int_columns)]
            _, rows = _echelon(rows, self.nrows)
            rows = [_primitive(row)[0] for row in rows]
            columns = [tuple(a[j] for a in rows) for j in range(n)]
            self._dual = LinearMatroid(columns, self.labels, nrows=len(rows))
        return self._dual

    def is_uniform(self) -> tuple[int, int] | None:
        """(rank, size) when every rank-subset is a basis, else None.

        The smaller side's bases stream is compared with its rank-subsets,
        both in lexicographic order, up to the first subset the stream skips.
        """
        side = self._smaller()
        subsets = combinations(side.labels, side.rank())
        if all(b == s for b, s in zip(side.bases(), subsets)) and next(subsets, None) is None:
            return self.rank(), len(self)
        return None


def _subset_groups(columns, rank_rows, size):
    """The subsets of ``columns`` of one ``size``, or of every size when it is None, with ranks.

    Explicit-stack depth-first search in lexicographic order, from the
    coordinate rows ``rank_rows``, in which every subset keeps its rank.
    A prefix carries its rows, cut to the columns after its last index,
    and its last pivot; :func:`_pivot` at the next index, dividing by
    that pivot, gives a child's rows and whether its rank grew, except
    at the last index, where the rank grew exactly when the column is
    nonzero.  The search stops at leaves (idxs, rank, rows).  For one
    size they are groups, the prefixes three short of it (the root, when
    it is at most 3), whose later columns add their rank in the rows,
    which :func:`_independent_subsets` reads off minors; size 0 is
    ((), 0, None) alone.  For every size they are tails, prefixes whose
    rows have rank at most 1 (at most one row, or :func:`_flat`), and
    each other prefix comes alone, as (idxs, rank, None), ahead of its
    children.  Only the step multiplies the root's rows, the raw columns.
    """
    n = len(columns)
    # an entry holds its parent's rows, cut to the columns from ``start``,
    # and the parent's last pivot
    stack = [((), [[col[i] for col in columns] for i in rank_rows], 0, 0, 1)]
    while stack:
        idxs, rows, rank, start, prev = stack.pop()
        if idxs and idxs[-1] == n - 1:  # childless: its column is the parent's last
            rank += any(row[-1] for row in rows)
            rows = []
        elif idxs:
            pivot, rows = _pivot(rows, idxs[-1] - start, prev)
            if pivot is not None:
                rank += 1
                prev = pivot[0]
        first = idxs[-1] + 1 if idxs else 0
        if size is None:  # a tail, else a prefix alone ahead of its children
            leaf, room = len(rows) < 2 or first > n - 2 or idxs and _flat(rows), 1
            yield idxs, rank, rows if leaf else None
        else:  # a group, or the empty set alone for size 0; a child leaves room for the rest
            leaf, room = len(idxs) + 3 >= size, size - len(idxs)
            if leaf:
                yield idxs, rank, rows if size else None
        if not leaf:
            stack += ((idxs + (c,), rows, rank, first, prev) for c in reversed(range(first, n - room + 1)))


def _flat(rows) -> bool:
    """Whether two or more integer ``rows``, each two or more long, have rank at most 1."""
    a, b = rows[0], rows[1]
    if a[0] * b[1] != a[1] * b[0]:  # the usual answer, from the first 2×2 minor
        return False
    rows = [row for row in rows if any(row)]  # then each nonzero row is a multiple of the first
    q = next(j for j, x in enumerate(rows[0]) if x) if rows else 0
    return all(rows[0][q] * y == x * row[q] for row in rows[1:] for x, y in zip(rows[0], row))


def _independent_subsets(rows, depth, names):
    """[singles, pairs, triples]: the full-rank sets of the columns of ≤ 3 integer ``rows``.

    Each lists (pairs and triples lazily) the sets' tuples of column
    ``names`` in lexicographic order, up to size ``depth``.  A column has
    rank 1 when nonzero.  In three rows, u pivots on its first nonzero u_p
    and a later v becomes (u_p·v_i − u_i·v_p, u_p·v_j − u_j·v_p): up to
    sign, two components of the cross product w = u × v, zero only with
    it.  The pair has rank 2 when they are nonzero, and (u, v, x) rank 3
    when the vectors of v and x have a nonzero 2×2 minor, ±u_p·(w·x).
    Fewer rows are padded with zero rows.
    """
    if 0 < len(rows) < 3:
        rows = rows + [[0] * len(rows[0])] * (3 - len(rows))
    columns = [
        (a, col, (0, 1, 2) if col[0] else (1, 0, 2) if col[1] else (2, 0, 1))
        for a, col in zip(names, zip(*rows)) if any(col)
    ]
    # for each column, the later columns with two components of their cross product with it
    blocks = (
        (a, [(b, u[p] * v[i] - u[i] * v[p], u[p] * v[j] - u[j] * v[p]) for b, v, _ in columns[k + 1 :]])
        for k, (a, u, (p, i, j)) in enumerate(columns if depth > 1 else ())
    )
    if depth > 2:
        blocks = list(blocks)
    triples = (
        (a, b, c)
        for a, block in (blocks if depth > 2 else ())
        for (b, x0, x1), (c, y0, y1) in combinations(block, 2)
        if x0 * y1 != x1 * y0
    )
    return [[(a,) for a, _, _ in columns], ((a, b) for a, block in blocks for b, x0, x1 in block if x0 or x1), triples]


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

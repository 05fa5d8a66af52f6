"""Truncated q-expansions over the exact rationals.

A :class:`QSeries` stores coefficients 0..order inclusive.  Arithmetic
truncates to the smaller operand's order, so there is never phantom
precision: the order of a value always bounds what is actually known.
Values are immutable and safe to share between threads.
"""

from fractions import Fraction
from functools import cache
from operator import mul

from .linalg import _over_common_denominator
from .partitions import partition_count, pentagonal_pairs
from .shifted import bernoulli


def fraction_str(x) -> str:
    """Render an exact rational as ``num/den``, omitting ``/1``."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def join_signed(terms) -> str:
    """Join ``(sign, body)`` pairs as ``a + b - c``; no terms give ``0``."""
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def convolve(a, b) -> list[int]:
    """The product of two integer coefficient lists, cut to the shorter one."""
    n = min(len(a), len(b))
    rev = b[n - 1 :: -1]
    return [sum(map(mul, a[: m + 1], rev[n - 1 - m :])) for m in range(n)]


class QSeries:
    """A formal power series in q truncated at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs += [Fraction(0)] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return QSeries(self.coeffs, order=order)

    def qshift(self) -> "QSeries":
        """Multiply by q, keeping the truncation order (top term drops)."""
        return QSeries((Fraction(0),) + self.coeffs[:-1])

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __neg__(self):
        return QSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, QSeries):
            # Convolve integer numerators over one common denominator per
            # operand: a single Fraction per output coefficient.
            n = min(self.order, other.order)
            a, a_den = _over_common_denominator(self.coeffs[: n + 1])
            b, b_den = _over_common_denominator(other.coeffs[: n + 1])
            den = a_den * b_den
            return QSeries([Fraction(c, den) for c in convolve(a, b)])
        if isinstance(other, (int, Fraction)):
            return QSeries([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers are not defined for truncated series")
        result = QSeries([1], order=self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [fraction_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "QSeries":
        return cls([Fraction(c) for c in obj["coeffs"]], order=obj["order"])

    def __repr__(self):
        return f"QSeries({[str(c) for c in self.coeffs]})"

    def __str__(self):
        """Human form, highest power first, zero terms skipped."""
        parts = []
        for n in range(self.order, -1, -1):
            c = self.coeffs[n]
            if not c:
                continue
            if n == 0:
                body = fraction_str(abs(c))
            else:
                q = "q" if n == 1 else f"q^{n}"
                body = q if abs(c) == 1 else f"{fraction_str(abs(c))}*{q}"
            parts.append(("-" if c < 0 else "+", body))
        return join_signed(parts)


@cache
def euler_function(order: int) -> QSeries:
    """(q)_inf as a sparse pentagonal-number sum, truncated at ``order``.

    Built from :func:`pentagonal_pairs` rather than the infinite product;
    the product expansion survives in the tests as an independent oracle.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    cs = [Fraction(0)] * (order + 1)
    for j, m in pentagonal_pairs(order):
        cs[order - m] += 1 if j % 2 == 0 else -1
    return QSeries(cs)


@cache
def inverse_euler(order: int) -> QSeries:
    """Generating series of the partition numbers, 1/(q)_inf."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return QSeries([partition_count(d) for d in range(order + 1)])


def sigma(n: int, power: int) -> int:
    """Divisor power sum sigma_power(n) by a direct divisor loop."""
    if n < 1:
        raise ValueError("divisor sums require n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**power
            e = n // d
            if e != d:
                total += e**power
        d += 1
    return total


@cache
def eisenstein_series(k: int, order: int) -> QSeries:
    """Weight-k Eisenstein series -B_k/(2k) + sum sigma_{k-1}(n) q^n.

    Non-normalized convention: the constant term is -B_k/(2k), e.g.
    -1/24 for k = 2 and 1/240 for k = 4.
    """
    nums, scale = eisenstein_numerators(k, order)
    return QSeries([Fraction(x, scale) for x in nums])


@cache
def eisenstein_numerators(k: int, order: int) -> tuple[tuple[int, ...], int]:
    """(N, s): s times the weight-k Eisenstein series is the integer series N.

    s is the denominator of the constant term -B_k/(2k), so 24·E2, 240·E4
    and 504·E6 start with -1, 1 and -1.
    """
    if k < 2 or k % 2:
        raise ValueError(f"Eisenstein weight must be a positive even integer, got {k}")
    const = -bernoulli(k) / (2 * k)
    scale = const.denominator
    return (const.numerator, *(scale * sigma(n, k - 1) for n in range(1, order + 1))), scale


@cache
def discriminant(order: int) -> QSeries:
    """The weight-12 cusp form, coefficients tau(n).

    Constructed twice, as q * (q)_inf^24 and as 8000 E_4^3 - 147 E_6^2,
    and the two are required to agree; a mismatch means the series stack
    itself is broken, so it is raised rather than returned.
    """
    product_route = (euler_function(order) ** 24).qshift()
    e4 = eisenstein_series(4, order)
    e6 = eisenstein_series(6, order)
    eisenstein_route = 8000 * e4**3 - 147 * e6**2
    if product_route != eisenstein_route:
        raise ArithmeticError(
            "discriminant self-check failed: product and Eisenstein routes disagree"
        )
    return product_route

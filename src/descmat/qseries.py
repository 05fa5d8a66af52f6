"""Truncated q-expansions over the exact rationals.

A :class:`QSeries` stores coefficients 0..order inclusive, as integer
numerators over their least positive common denominator; this module
alone turns them into Fractions.  Arithmetic truncates to the smaller
operand's order, so there is never phantom precision: the order of a
value always bounds what is actually known.  Values are immutable and
safe to share between threads.
"""

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul

from .linalg import _over_common_denominator
from .partitions import bernoulli, partition_count, pentagonal_pairs


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
    """A formal power series in q truncated at a fixed order.

    Integer numerators ``nums`` over ``den`` > 0, in lowest terms, so equal
    series have equal ``(nums, den)``.  The constructor takes rationals,
    or integers over ``den``; ``coeffs`` is the rational view, built once.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs, order: int | None = None, den: int = 1):
        cs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            if len(cs) > order + 1:
                del cs[order + 1 :]
            else:
                cs += [0] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        if not den:
            raise ZeroDivisionError("a series needs a nonzero denominator")
        if not all(type(c) is int for c in cs):
            cs, common = _over_common_denominator(list(map(Fraction, cs)))
            den *= common
        g = gcd(den, *cs)
        if den < 0:
            g = -g
        if g != 1:
            cs = [c // g for c in cs]
            den //= g
        self.nums: tuple[int, ...] = tuple(cs)
        self.den: int = den
        self._coeffs = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on first read and kept."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(x, den) for x in self.nums)
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return QSeries(self.nums, order=order, den=self.den)

    def qshift(self) -> "QSeries":
        """Multiply by q, keeping the truncation order (top term drops)."""
        return QSeries((0,) + self.nums[:-1], den=self.den)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return QSeries([x * a + y * b for x, y in zip(self.nums, other.nums)], den=den)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return QSeries([-x for x in self.nums], den=self.den)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return QSeries(convolve(self.nums, other.nums), den=self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return QSeries(
                [x * other.numerator for x in self.nums], den=self.den * other.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers are not defined for truncated series")
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return QSeries([1], order=self.order) if result is None else result

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [fraction_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "QSeries":
        coeffs, order = obj["coeffs"], obj["order"]
        if len(coeffs) != order + 1:
            raise ValueError(f"order {order} needs {order + 1} coefficients, got {len(coeffs)}")
        return cls(coeffs)

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
    cs = [0] * (order + 1)
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
    -1/24 for k = 2 and 1/240 for k = 4.  Its denominator s is the
    series' ``den``, so 24·E2, 240·E4 and 504·E6 are the integer
    ``nums``, starting with -1, 1 and -1.
    """
    if k < 2 or k % 2:
        raise ValueError(f"Eisenstein weight must be a positive even integer, got {k}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    const = -bernoulli(k) / (2 * k)
    s = const.denominator
    return QSeries([const.numerator, *(s * sigma(n, k - 1) for n in range(1, order + 1))], den=s)


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

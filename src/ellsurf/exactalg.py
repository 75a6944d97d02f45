"""Exact rational polynomial algebra and special values.

Polynomials live in Q[t] where t stands for q^(-s).  Nothing is ever
evaluated in floating point: special values at s = 1 (t = 1/q) are elements
of the graded group Q^x * (log q)^k, with log q kept as a formal symbol.
Per-place logarithms collapse through log q_v = d_v * log q, so a single
grading integer suffices.

Coefficients are ints, and Fractions only where not integral; a float is
a TypeError.  The vanishing order at t = 1/q is computed by synthetic
division by (1 - q*t), on ints for an integral polynomial; each division
accounts for one factor (s - 1) * log q of the leading term, which is why
order and log-power advance together.  Every polynomial the verifier reads
a special value from is in Z[t]: L, P2, and the bad-fiber correction Q,
the product over the non-identity component orbits of (1 - q_v^r t^{r d_v}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZero,
    InconsistentPowerSums,
    NoConsistentSign,
)


def _exact(c):
    """c as an int when integral, else as a Fraction; a float raises TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    c = Fraction(c)
    return int(c.numerator) if c.denominator == 1 else c


class RatPoly:
    """Polynomial over Q, coefficient index = degree in t; each coefficient
    an int when integral, else a Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls) -> "RatPoly":
        return cls([1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return RatPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = RatPoly.one()
        b = self
        while n:
            if n & 1:
                result = result * b
            b = b * b
            n >>= 1
        return result

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatPoly):
            return x
        return RatPoly([x])

    def eval(self, x):
        acc = 0
        x = _exact(x)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def power_sums(self, m: int) -> list:
        """First m power sums of the inverse roots, via -t P'/P = sum s_k t^k.

        Requires constant term 1.
        """
        if self.coeff(0) != 1:
            raise ValueError("power sums need constant term 1")
        s = []
        for k in range(1, m + 1):
            acc = -k * self.coeff(k)
            for j in range(1, k):
                acc -= self.coeff(j) * s[k - j - 1]
            s.append(acc)
        return s

    def __repr__(self):
        if self.is_zero():
            return "RatPoly(0)"
        return "RatPoly(" + ", ".join(str(c) for c in self.coeffs) + ")"


@dataclass(frozen=True)
class SpecialValue:
    """sign * (num/den) * (log q)^log_power, vanishing to the given order."""

    sign: int
    num: int
    den: int
    log_power: int
    order: int

    @classmethod
    def from_fraction(cls, value: Fraction, log_power: int, order: int) -> "SpecialValue":
        value = Fraction(value)
        if value == 0:
            raise ValueError("special values are nonzero by construction")
        sign = 1 if value > 0 else -1
        mag = abs(value)
        return cls(sign, mag.numerator, mag.denominator, log_power, order)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def signed_value(self) -> Fraction:
        return self.sign * self.value

    def mul(self, other: "SpecialValue") -> "SpecialValue":
        return SpecialValue.from_fraction(
            self.signed_value * other.signed_value,
            self.log_power + other.log_power,
            self.order + other.order,
        )

    def __repr__(self):
        s = "+" if self.sign > 0 else "-"
        return f"SV({s}{self.num}/{self.den} * log^{self.log_power}, ord {self.order})"


def newton_from_power_sums(sums, degree: int) -> RatPoly:
    """Reconstruct P(t) = prod (1 - a_i t) from power sums s_k = sum a_i^k.

    ``sums`` may be longer than ``degree``; surplus entries are checked for
    consistency against the reconstructed polynomial.
    """
    sums = [_exact(s) for s in sums]
    if len(sums) < degree:
        raise InconsistentPowerSums(
            f"need {degree} power sums, got {len(sums)}"
        )
    coeffs = [1]
    for k in range(1, degree + 1):
        acc = sums[k - 1]
        for j in range(1, k):
            acc += coeffs[j] * sums[k - j - 1]
        coeffs.append(_exact(Fraction(-acc, k)))
    poly = RatPoly(coeffs)
    # surplus consistency: the recurrence must continue to hold
    for k in range(degree + 1, len(sums) + 1):
        acc = sums[k - 1]
        for j in range(1, min(k, degree + 1)):
            acc += coeffs[j] * sums[k - j - 1]
        if acc != 0:
            raise InconsistentPowerSums(f"power sum s_{k} inconsistent")
    return poly


def functional_equation_complete(
    partial: RatPoly, degree: int, q: int, weight: int, sign: int | None = None
) -> RatPoly:
    """Fill the upper half of a self-dual polynomial.

    Self-duality: P(t) = sign * (q^(weight/2) t)^degree * P(1/(q^weight t)),
    i.e. coefficientwise a_{n-j} = sign * q^(weight*(n-2j)/2) * a_j.  Known
    low coefficients must cover j <= ceil(n/2).  With ``sign`` unset both
    signs are tried and the consistent one returned.
    """
    n = degree
    if n == 0:
        return partial
    if partial.degree > n:
        raise NoConsistentSign("partial polynomial exceeds target degree")
    half = (n + 1) // 2
    given_up_to = max(half, min(partial.degree, n))

    def attempt(eps: int) -> RatPoly | None:
        out: list = [None] * (n + 1)
        for j in range(given_up_to + 1):
            out[j] = partial.coeff(j)
        for j in range(given_up_to + 1):
            e2 = weight * (n - 2 * j)
            if e2 % 2:
                if out[j] != 0:
                    return None
                continue
            e = e2 // 2
            val = eps * (q**e if e >= 0 else Fraction(1, q**-e)) * out[j]
            if out[n - j] is None:
                out[n - j] = val
            elif out[n - j] != val:
                return None
        return RatPoly([0 if c is None else c for c in out])

    if sign is not None:
        got = attempt(sign)
        if got is None:
            raise NoConsistentSign(f"sign {sign} inconsistent with given coefficients")
        return got
    plus = attempt(1)
    minus = attempt(-1)
    if plus is not None:
        return plus
    if minus is not None:
        return minus
    raise NoConsistentSign("neither functional-equation sign is consistent")


def poly_order_at(poly: RatPoly, q: int):
    """(order of vanishing at t=1/q, cofactor with cofactor(1/q) != 0).

    f = (1 - q t) g is divided by synthetic division from the constant term
    up, g_k = f_k + q g_(k-1), on ints when f is integral; the last step's
    value is q^deg(f) f(1/q), zero exactly when (1 - q t) divides."""
    if poly.is_zero():
        raise DivisionByZero("zero polynomial has no leading term")
    cs, order = poly.coeffs, 0
    while True:
        g, acc = [], 0
        for c in cs:
            acc = c + q * acc
            g.append(acc)
        if acc:
            return order, RatPoly(cs)
        cs, order = g[:-1], order + 1


def leading_term(f: RatPoly, q: int) -> SpecialValue:
    """Leading term of f at t = 1/q as sign * rational * (log q)^k.

    Writes f = (1 - q t)^k * g with g(1/q) != 0; the value is g(1/q), the
    order and log-power are both k (each division corresponds to one factor
    (s-1) log q).
    """
    k, g = poly_order_at(f, q)
    return SpecialValue.from_fraction(g.eval(Fraction(1, q)), k, k)

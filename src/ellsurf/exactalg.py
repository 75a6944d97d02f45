"""Exact rational polynomial algebra and special values.

Polynomials live in Q[t] where t stands for q^(-s): they are ``ffield.Poly``
over ``QQ``, the coefficient context of Q, and ``power_sums`` and
``is_integral`` read them as polynomials over Q.  Nothing is ever
evaluated in floating point: special values at s = 1 (t = 1/q) are elements
of the graded group Q^x * (log q)^k, with log q kept as a formal symbol.
Per-place logarithms collapse through log q_v = d_v * log q, so a single
grading integer suffices.

Coefficients are ints, and Fractions only where not integral, after every
sum and product; a float is a TypeError.  The vanishing order at t = 1/q is computed by synthetic
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
from .ffield import Poly


def _exact(c):
    """c as an int when integral, else as a Fraction; a float raises TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    c = Fraction(c)
    return int(c.numerator) if c.denominator == 1 else c


class _Rationals:
    """The coefficient context of Q for ``ffield.Poly``: raw values are ints,
    and Fractions only where not integral, so sums and products come out as
    ints when integral and a float is a TypeError."""

    zero, one = 0, 1
    raw = staticmethod(_exact)

    @staticmethod
    def raw_add(a, b):
        return _exact(a + b)

    @staticmethod
    def raw_mul(a, b):
        return _exact(a * b)

    @staticmethod
    def poly_mul(a, b) -> list:
        """Schoolbook product of nonzero trimmed raw lists."""
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return [_exact(c) for c in out]


QQ = _Rationals()


def is_integral(f: Poly) -> bool:
    """Whether f over Q lies in Z[t]: every coefficient an int."""
    return all(type(c) is int for c in f.coeffs)


def power_sums(f: Poly, m: int) -> list:
    """First m power sums of the inverse roots of f over Q, via
    -t f'/f = sum s_k t^k.  Requires constant term 1."""
    if f.coeff(0) != 1:
        raise ValueError("power sums need constant term 1")
    s = []
    for k in range(1, m + 1):
        acc = -k * f.coeff(k)
        for j in range(1, k):
            acc -= f.coeff(j) * s[k - j - 1]
        s.append(acc)
    return s


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


def newton_from_power_sums(sums, degree: int) -> Poly:
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
    poly = Poly(QQ, coeffs)
    # surplus consistency: the recurrence must continue to hold
    for k in range(degree + 1, len(sums) + 1):
        acc = sums[k - 1]
        for j in range(1, min(k, degree + 1)):
            acc += coeffs[j] * sums[k - j - 1]
        if acc != 0:
            raise InconsistentPowerSums(f"power sum s_{k} inconsistent")
    return poly


def functional_equation_complete(
    partial: Poly, degree: int, q: int, sign: int | None = None
) -> Poly:
    """Fill the upper half of a polynomial self-dual in weight 2.

    Self-duality: P(t) = sign * (q t)^degree * P(1/(q^2 t)), i.e.
    coefficientwise a_{n-j} = sign * q^(n-2j) * a_j.  Known low
    coefficients must cover j <= ceil(n/2).  With ``sign`` unset both signs
    are tried and the consistent one returned.
    """
    n = degree
    if n == 0:
        return partial
    if partial.degree > n:
        raise NoConsistentSign("partial polynomial exceeds target degree")
    half = (n + 1) // 2
    given_up_to = max(half, min(partial.degree, n))

    def attempt(eps: int) -> Poly | None:
        out: list = [None] * (n + 1)
        for j in range(given_up_to + 1):
            out[j] = partial.coeff(j)
        for j in range(given_up_to + 1):
            e = n - 2 * j
            val = eps * (q**e if e >= 0 else Fraction(1, q**-e)) * out[j]
            if out[n - j] is None:
                out[n - j] = val
            elif out[n - j] != val:
                return None
        return Poly(QQ, [0 if c is None else c for c in out])

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


def poly_order_at(poly: Poly, q: int):
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
            return order, Poly(QQ, cs)
        cs, order = g[:-1], order + 1


def leading_term(f: Poly, q: int) -> SpecialValue:
    """Leading term of f at t = 1/q as sign * rational * (log q)^k.

    Writes f = (1 - q t)^k * g with g(1/q) != 0; the value is g(1/q), the
    order and log-power are both k (each division corresponds to one factor
    (s-1) log q).
    """
    k, g = poly_order_at(f, q)
    return SpecialValue.from_fraction(g.eval(Fraction(1, q)), k, k)

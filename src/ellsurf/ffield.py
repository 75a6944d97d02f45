"""Finite fields, the one polynomial class, and places of the projective line.

Fields are represented as context objects: ``PrimeField(p)`` for GF(p) and
``ExtensionField(base, modulus)`` for quotients base[x]/(modulus).  Each
context has one arithmetic, on raw values: ints in [0, p) over GF(p), and
for an extension tuples of its base's raw values (nested tuples over an
extension base), with ``raw_add``, ``raw_neg``, ``raw_mul``, ``raw_inv``,
``raw_pow``, ``raw_values``, ``raw_key``, ``is_square``, ``poly_mul`` and
``poly_divmod`` (on coefficient lists, plain ints over GF(p)); ``zero``
and ``one`` are raw values too.  ``raw_key`` flattens a raw value to its
base-p digits, on which addition is digit-wise mod p.  ``Poly`` holds raw
coefficients over any such context, and over ``exactalg.QQ``, the context
of Q, which has only ``raw``, ``raw_add``, ``raw_mul``, ``poly_mul``,
``zero`` and ``one``.  Everything is exact and immutable; contexts can be
shared freely.  A context's ``key``, (p,) or (base key, modulus), is its
value; per-process caches of field-only data are keyed by it.

A place of P^1 over GF(q) is either the point at infinity or a monic
irreducible polynomial in the coordinate t.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CharTooSmall, DivisionByZero, NotIrreducible, NotPrime


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of an integer n >= 1, by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def _pack(cs, bits: int) -> int:
    """The int with base-2^bits digits cs (non-negative, below 2^bits)."""
    x = 0
    for c in reversed(cs):
        x = x << bits | c
    return x


def _unpack(x: int, bits: int, n: int, p: int) -> list:
    """The low n base-2^bits digits of x, each reduced mod p."""
    mask, out = (1 << bits) - 1, []
    for _ in range(n):
        out.append((x & mask) % p)
        x >>= bits
    return out


class PrimeField:
    """GF(p).  Raw values are ints in [0, p), which are also the raw values
    that extensions of GF(p) build their coefficient tuples from."""

    def __init__(self, p: int, _allow_small: bool = False):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p < 5 and not _allow_small:
            raise CharTooSmall(f"characteristic {p} not supported (need p >= 5)")
        self.p = p
        self.q = p
        self.degree = 1
        self.char = p
        self.zero = 0
        self.one = 1
        self.key = (p,)

    def raw(self, x: int) -> int:
        """The raw value of an int."""
        return x % self.p

    def raw_add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def raw_neg(self, a: int) -> int:
        return -a % self.p

    def raw_mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def raw_inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def raw_pow(self, a: int, n: int) -> int:
        """a^n for n >= 0."""
        return pow(a, n, self.p)

    def raw_values(self):
        return range(self.p)

    def raw_key(self, a: int) -> tuple:
        return (a,)

    def is_square(self, a: int) -> bool:  # Euler's criterion
        return a == 0 or pow(a, (self.p - 1) // 2, self.p) == 1

    def poly_mul(self, a, b) -> list:
        """Product of nonzero trimmed raw lists by Kronecker substitution: the
        lists packed in ints, slots wide enough for a product coefficient."""
        bits = (min(len(a), len(b)) * (self.p - 1) ** 2).bit_length()
        return _unpack(_pack(a, bits) * _pack(b, bits), bits, len(a) + len(b) - 1, self.p)

    def poly_divmod(self, a, b) -> tuple[list, list]:
        """(quotient, remainder) of trimmed raw lists, b nonzero: the rows
        add as plain ints, reduced at each quotient digit and once at the end."""
        p, db = self.p, len(b) - 1
        inv, low = pow(b[-1], p - 2, p), b[:-1]
        rem, quot = list(a), [0] * max(0, len(a) - db)
        for k in range(len(a) - 1, db - 1, -1):
            c = rem[k] * inv % p
            if c:
                quot[k - db] = c
                for j, y in enumerate(low, k - db):
                    rem[j] -= c * y
        return quot, _trimmed([c % p for c in rem[:db]], 0)

    def __repr__(self):
        return f"PrimeField({self.p})"


class ExtensionField:
    """base[x]/(modulus) for a monic irreducible modulus over ``base``.

    A raw value is a tuple of deg(modulus) raw base values, low-degree
    coefficient first: ints in [0, p) over GF(p), and over an extension base
    the tuples of that base.  ``modulus`` holds raw base values too, low
    degree first.
    """

    def __init__(self, base, modulus_coeffs, check_irreducible: bool = True):
        # modulus_coeffs: sequence over base (raw values or ints), monic
        bzero = base.zero
        mod = [base.raw(c) for c in modulus_coeffs]
        while mod and mod[-1] == bzero:
            mod.pop()
        d = len(mod) - 1
        if d < 1:
            raise NotIrreducible("modulus must have degree >= 1")
        if mod[-1] != base.one:
            raise NotIrreducible("modulus must be monic")
        self.base = base
        self.modulus = tuple(mod)
        self.key = (base.key, self.modulus)
        self.degree = d
        self.p = base.p
        self.char = base.char
        self.q = base.q**d
        self._bzero = bzero
        self._badd, self._bmul = base.raw_add, base.raw_mul
        # x^d = sum of _red[i] x^i, as (i, raw coefficient) with zeros dropped
        self._red = tuple((i, base.raw_neg(c)) for i, c in enumerate(mod[:-1]) if c != bzero)
        self.zero = (bzero,) * d
        self.one = (base.one,) + self.zero[1:]
        if check_irreducible and not poly_is_irreducible(Poly(base, mod)):
            raise NotIrreducible("modulus is reducible")

    def raw(self, x) -> tuple:
        """The raw value of an int, or of a coefficient sequence over the
        base (a raw value is one, and is returned as it is)."""
        if isinstance(x, int):
            return (self.base.raw(x),) + self.zero[1:]
        vec = tuple(self.base.raw(c) for c in x)
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than extension degree")
        return vec + self.zero[len(vec):]

    def raw_add(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(self._badd, a, b))

    def raw_neg(self, a: tuple) -> tuple:
        return tuple(map(self.base.raw_neg, a))

    def raw_mul(self, a: tuple, b: tuple) -> tuple:
        d, zero, add, mul = self.degree, self._bzero, self._badd, self._bmul
        prod = [zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if x != zero:
                for j, y in enumerate(b):
                    if y != zero:
                        prod[i + j] = add(prod[i + j], mul(x, y))
        # reduce degrees >= d using x^d = sum(_red[i] x^i)
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c != zero:
                for i, r in self._red:
                    prod[k - d + i] = add(prod[k - d + i], mul(c, r))
        return tuple(prod[:d])

    def raw_inv(self, a: tuple) -> tuple:
        if a == self.zero:
            raise DivisionByZero("inverse of zero")
        # Fermat: a^(q-2)
        return self.raw_pow(a, self.q - 2)

    def raw_pow(self, a: tuple, n: int) -> tuple:
        """a^n for n >= 0."""
        result = self.one
        while n:
            if n & 1:
                result = self.raw_mul(result, a)
            a = self.raw_mul(a, a)
            n >>= 1
        return result

    def raw_values(self):
        """Every raw value, in ``itertools.product`` order of the base's."""
        return itertools.product(tuple(self.base.raw_values()), repeat=self.degree)

    def raw_key(self, a: tuple) -> tuple:
        raw_key = self.base.raw_key
        return tuple(k for c in a for k in raw_key(c))

    def raw_norm(self, a: tuple):
        """N(a) = Res(modulus, a) by Euclid: Res(f, g) = (-1)^(deg f deg g)
        lc(g)^(deg f - deg r) Res(g, r) for r = f mod g, Res(f, c) = c^deg f."""
        base, acc = self.base, self.base.one
        f, g = self.modulus, _trimmed(list(a), self._bzero)
        while len(g) > 1:
            r = base.poly_divmod(f, g)[1]
            acc = base.raw_mul(acc, base.raw_pow(g[-1], len(f) - len(r)))
            acc = base.raw_neg(acc) if (len(f) - 1) * (len(g) - 1) % 2 else acc
            f, g = g, r
        return base.raw_mul(acc, base.raw_pow(g[0], len(f) - 1)) if g else self._bzero

    def is_square(self, a: tuple) -> bool:
        """N maps a generator to a generator: a is a square iff N(a) is."""
        return a == self.zero or self.base.is_square(self.raw_norm(a))

    def poly_mul(self, a, b) -> list:
        """Product of nonzero trimmed raw lists."""
        add, mul, zero = self.raw_add, self.raw_mul, self.zero
        nb = len(b)
        out = [zero] * (len(a) + nb - 1)
        for i, x in enumerate(a):
            if x != zero:
                out[i : i + nb] = map(add, out[i : i + nb], [mul(x, y) for y in b])
        return out

    def poly_divmod(self, a, b) -> tuple[list, list]:
        """(quotient, remainder) of trimmed raw lists, b nonzero."""
        add, mul, zero = self.raw_add, self.raw_mul, self.zero
        db, inv = len(b) - 1, self.raw_inv(b[-1])
        minus = [self.raw_neg(y) for y in b[:-1]]
        rem, quot = list(a), [zero] * max(0, len(a) - db)
        for k in range(len(a) - 1, db - 1, -1):
            if rem[k] != zero:
                c = quot[k - db] = mul(rem[k], inv)
                rem[k - db : k] = map(add, rem[k - db : k], [mul(c, y) for y in minus])
        return quot, _trimmed(rem[:db], zero)

    def __repr__(self):
        return f"ExtensionField({self.base!r}, deg {self.degree})"


def field_make(p: int, modulus=None):
    """Build GF(p) or GF(p^d) from a monic modulus over GF(p).

    Raises NotPrime / CharTooSmall / NotIrreducible per the obvious guards.
    A degree-1 modulus yields the prime field itself.
    """
    base = PrimeField(p)
    if modulus is None:
        return base
    mod = [base.raw(c) for c in modulus]
    while mod and not mod[-1]:
        mod.pop()
    if len(mod) - 1 == 1:
        return base
    return ExtensionField(base, mod)


# ---------------------------------------------------------------------------
# polynomials over a coefficient context


class Poly:
    """Dense polynomial over a coefficient context (a finite field, or
    ``exactalg.QQ``) on raw coefficients, low degree first, trailing zeros
    trimmed.  The constructor takes raw values, ints and coefficient
    vectors: whatever the context's ``raw`` reads, which returns a raw value
    unchanged.  Over Q only the ring operations, ``coeff`` and ``eval``
    apply: Q has no ``raw_neg``, ``raw_inv`` or ``raw_key``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        self.field = field
        self.coeffs = tuple(_trimmed([field.raw(c) for c in coeffs], field.zero))

    @classmethod
    def _of_raw(cls, field, cs):
        """The Poly on the raw values cs as they are: the caller hands in
        raw values of ``field`` with no trailing zero, so no ``field.raw``
        runs.  Arithmetic builds its results here."""
        out = cls.__new__(cls)
        out.field = field
        out.coeffs = tuple(cs)
        return out

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(map(self.field.raw_add, a, b)) + list(a[len(b):])
        return Poly._of_raw(self.field, _trimmed(out, self.field.zero))

    def __neg__(self):
        return Poly._of_raw(self.field, map(self.field.raw_neg, self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly._of_raw(self.field, ())
        return Poly._of_raw(self.field, self.field.poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n, n >= 0, by left-to-right square-and-multiply from self."""
        result = self if n else Poly(self.field, [self.field.one])
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        return Poly(self.field, [other])

    def divmod(self, other):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        quot, rem = self.field.poly_divmod(self.coeffs, other.coeffs)
        return Poly._of_raw(self.field, quot), Poly._of_raw(self.field, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        f = self.field
        inv = f.raw_inv(self.coeffs[-1])
        return Poly._of_raw(f, [f.raw_mul(c, inv) for c in self.coeffs])

    def coeff(self, i: int):
        """The raw coefficient of t^i, zero past the degree."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def eval(self, x):
        """The raw value at a raw value x of the context, by Horner."""
        f = self.field
        add, mul = f.raw_add, f.raw_mul
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc

    def reverse(self, n: int) -> "Poly":
        """t^n * self(1/t); requires n >= degree."""
        if n < self.degree:
            raise ValueError("reversal length below degree")
        out = [self.field.zero] * (n + 1 - len(self.coeffs)) + list(self.coeffs[::-1])
        return Poly._of_raw(self.field, _trimmed(out, self.field.zero))

    def key(self) -> tuple:
        return tuple(map(self.field.raw_key, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        zero = self.field.zero
        parts = [f"({c})*t^{i}" for i, c in enumerate(self.coeffs) if c != zero]
        return "Poly(" + " + ".join(parts) + ")"


def _trimmed(cs: list, zero) -> list:
    """cs with its trailing zeros popped, in place."""
    while cs and cs[-1] == zero:
        cs.pop()
    return cs


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd (0 for two zeros), by Euclid on raw coefficients."""
    field, x, y = a.field, a.coeffs, b.coeffs
    while y:
        x, y = y, field.poly_divmod(x, y)[1]
    return Poly._of_raw(field, x).monic()


def poly_pow_mod(base: Poly, n: int, mod: Poly) -> Poly:
    """base^n mod ``mod``, by left-to-right squaring on raw coefficients."""
    field, m = base.field, mod.coeffs
    mulmod = lambda x, y: field.poly_divmod(field.poly_mul(x, y), m)[1] if x and y else []
    b = (base % mod).coeffs
    result = b if n else [field.one]
    for bit in bin(n)[3:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, b)
    return Poly._of_raw(field, result)


def poly_is_irreducible(f: Poly) -> bool:
    """Rabin's test: f of degree n >= 1 is irreducible iff f divides
    t^(q^n) - t and is coprime to t^(q^(n/r)) - t for every prime r | n."""
    n = f.degree
    if n <= 0:
        return False
    q = f.field.q
    t = Poly(f.field, [0, 1])
    for r in factorize(n):
        if poly_gcd(poly_pow_mod(t, q ** (n // r), f) - t, f).degree > 0:
            return False
    return ((poly_pow_mod(t, q**n, f) - t) % f).is_zero()


# ---------------------------------------------------------------------------
# places of P^1


@dataclass(frozen=True)
class Place:
    """Closed point of P^1 over GF(q): infinity or a monic irreducible pi(t)."""

    kind: str  # "finite" | "infinity"
    poly: Poly | None
    degree: int

    @property
    def is_infinity(self) -> bool:
        return self.kind == "infinity"

    def sort_key(self) -> tuple:
        if self.is_infinity:
            return (0,)
        return (1, self.degree) + self.poly.key()

    def label(self) -> str:
        if self.is_infinity:
            return "oo"
        field = self.poly.field
        terms = []
        for i, c in enumerate(self.poly.coeffs):
            if c == field.zero:
                continue
            key = field.raw_key(c)
            v = key[0] if len(key) == 1 else key
            if i == 0:
                terms.append(f"{v}")
            else:
                power = "t" if i == 1 else f"t^{i}"
                terms.append(power if v == 1 else f"{v}*{power}")
        return "(" + " + ".join(reversed(terms)) + ")"


def place_infinity() -> Place:
    return Place("infinity", None, 1)


def place_finite(pi: Poly) -> Place:
    return Place("finite", pi.monic(), pi.degree)


def moebius(n: int) -> int:
    exps = factorize(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def irreducible_count(q: int, d: int) -> int:
    """Necklace formula: number of monic irreducibles of degree d over GF(q)."""
    divs = [e for e in range(1, d + 1) if d % e == 0]
    return sum(moebius(e) * q ** (d // e) for e in divs) // d


def residue_field(field, place: Place):
    """k(v) as a field context: ``field`` itself at a place of degree 1,
    else field[t]/(pi)."""
    if place.is_infinity:
        raise ValueError("infinity has no finite-place residue construction here")
    if place.degree == 1:
        return field
    return ExtensionField(field, place.poly.coeffs, check_irreducible=False)


def find_irreducible(field, degree: int) -> Poly:
    """Smallest monic irreducible of given degree in ``Place.sort_key``
    order, which compares coefficients from the constant term up.

    From degree 2 on, t divides every candidate with constant term 0 (the
    first q^(degree - 1) in that order), so the search starts past them."""
    elems = sorted(field.raw_values(), key=field.raw_key)
    constants = elems if degree == 1 else [c for c in elems if c != field.zero]
    for tail in itertools.product(constants, *[elems] * (degree - 1)):
        f = Poly(field, list(tail) + [field.one])
        if poly_is_irreducible(f):
            return f
    raise NotIrreducible(f"no irreducible of degree {degree}?")

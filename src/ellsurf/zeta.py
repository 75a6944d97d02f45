"""Global assembly: surface point counts, the degree-2 Frobenius polynomial
by two independent routes, the L-function of the generic-fiber Jacobian, and
the bad-fiber correction product.

The two routes to P2 are kept permanently and neither is treated as the
oracle: their coefficientwise agreement is the central factorization check.

The kernel's fields are numpy-coded: GF(p^n) = GF(p)[x]/(f) for the
least primitive monic f of degree n in ``Place.sort_key`` order, found by
testing the order of x on stacked multiplication-by-x matrices, so x
itself generates the unit group and its powers give the exp/log tables.
The tables are checked to be a bijection onto the nonzero codes before
any is read.  None of it uses ``ffield``'s field arithmetic or moduli:
the oracle's fields are its own.

One character-sum kernel serves every base field GF(p^k) and feeds both
routes: S(t) = sum_x chi(x^3 + A(t) x + B(t)) for the short model
minimalized at the finite places, read at one representative of each
Frobenius orbit of GF(q^n) on numpy-coded field tables; a level's orbits
depend only on (p, kn, q) and are built once per process.  The sums come
from the substitution x -> l x (Ireland and Rosen, GTM 84, ch. 8):
S(A, B) = chi(l) S(l^-2 A, l^-3 B).  It moves every nonzero A(t) to 1 or
to the generator, and for each of these two the table of S over every B is
a convolution over the additive group (Z/p)^(kn), computed by a p-point
number-theoretic transform along each base-p digit axis modulo a prime
r > 2 q^n + 1 (Pollard, "The fast Fourier transform in a finite field",
1971) and lifted to (-r/2, r/2].  A = 0 takes no transform: it moves B to
one of its at most three cube classes, whose sums take one O(q^n) pass.
Only A and B are evaluated at the representatives: the fiber over t is
good when 4 A^3 + 27 B^2 != 0 there, since Delta = -16 (4 A^3 + 27 B^2)
and -16 is a unit for p >= 5.  A good fiber over t has q^n + 1 + S(t)
points, and a good finite place of degree d with root t has a_v = -S(t).
The pure-Python counts of ``oracle``, which shares nothing with the
kernel, audit it (``verify.check_good_place_sanity``).

Route one counts points.  With first and third Betti numbers zero (the
supported class), #X(GF(q^n)) = 1 + q^(2n) + s_n where s_n is the n-th power
sum of the inverse roots of P2; Newton's identities plus the weight-2
functional equation then pin P2.  Counting is exact: the kernel's sum over
the good fibers plus the component counts of the bad fibers of the minimal
regular model.

Route two multiplies (1 - qt)^2 * L(t) * Q(t) in Z[t].  Q is the integral
polynomial prod (1 - q_v^r t^{r d_v}) over the non-identity component
orbits of the bad fibers (the degree-2 local factors divided by
(1 - q_v t^{d_v}), which each identity orbit cancels), and L is the Euler
product over the kernel's Frobenius orbits (``euler_factors``): a place with
a fiber takes the fiber's factor, a good infinity Tate's algorithm, and
every other good finite place 1 - a_v T + q_v T^2 with a_v from the
kernel's array of its degree.  No list of places is enumerated on this
route, and no place is keyed; these traces are built once per (model,
fibers), for L, its re-run and the good-place audit.  To order N, every
factor of degree d with 2 d > N adds only -c_1 t^d, so those degrees
enter as one coefficient each (sum a_v over the good places); at 2 d <= N
the series is divided once per distinct (d, L_v), raised to its count.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import (
    InconsistentCounts,
    InternalInconsistency,
    NoConsistentSign,
    NonPolynomial,
    NonPolynomialTail,
    NotIrreducible,
    PlaceBudgetExceeded,
    TruncationInsufficient,
)
from .exactalg import (
    QQ,
    functional_equation_complete,
    is_integral,
    leading_term,
    newton_from_power_sums,
    power_sums,
)
from .ffield import Poly, _is_prime, factorize
from .tatefiber import (
    FiberData,
    SurfaceInvariants,
    WeierstrassModel,
    fiber_point_count,
)

# ---------------------------------------------------------------------------
# coded arithmetic tables for GF(p^n), prime p

# candidate moduli tested per numpy step of ``_primitive_modulus``
_SEARCH_BATCH = 16


def _companion(coeffs, p: int):
    """The multiplication-by-x matrices of the monic polynomials with rows
    (c_0, ..., c_(n-1)) of ``coeffs``, stacked: row i of the matrix of f
    holds the digits of x^(i+1) mod f, so a row of digits times it is the
    digits of its product with x."""
    b, n = coeffs.shape
    out = np.zeros((b, n, n), dtype=np.int64)
    out[:, np.arange(n - 1), np.arange(1, n)] = 1
    out[:, n - 1] = -coeffs % p
    return out


def _is_identity_at(mats, exponents, p: int):
    """For a stack of square matrices over GF(p), one boolean row per
    exponent e: whether mats^e is the identity, by shared squarings."""
    unit = np.eye(mats.shape[-1], dtype=np.int64)
    squares = [mats]
    for _ in range(max(exponents).bit_length() - 1):
        squares.append(squares[-1] @ squares[-1] % p)
    rows = []
    for e in exponents:
        power = None
        for i in range(e.bit_length()):
            if e >> i & 1:
                power = squares[i] if power is None else power @ squares[i] % p
        rows.append((power == unit).all(axis=(1, 2)))
    return rows


def _primitive_modulus(p: int, n: int) -> tuple:
    """(c_0, ..., c_(n-1)) of the least primitive monic f = c_0 + ... +
    c_(n-1) x^(n-1) + x^n over GF(p) in ``Place.sort_key`` order (constant
    term first).  f is primitive iff x has order p^n - 1 modulo f (Lidl and
    Niederreiter, Finite Fields, Thm 3.16): then the ring GF(p)[x]/(f) has
    p^n - 1 units, so it is a field, and x generates its unit group.  The
    test runs on the stacked multiplication-by-x matrices C: C^(N-1) = I
    and C^((N-1)/l) != I for every prime l | N - 1, N = p^n.

    The norm of x is (-1)^n c_0, which generates GF(p)* when x generates
    GF(p^n)*, so only those constant terms are tried: the least primitive f
    is the same.  Candidates are enumerated in order, ``_SEARCH_BATCH`` at
    a time, never all p^(n-1) tails at once."""
    order = p**n - 1
    exponents = [order] + [order // ell for ell in factorize(order)]
    base_primes = factorize(p - 1)
    tails = p ** (n - 1)
    powers = p ** np.arange(n - 2, -1, -1, dtype=np.int64)  # c_1 is the top digit
    for c0 in range(1, p):
        norm = c0 if n % 2 == 0 else p - c0
        if any(pow(norm, (p - 1) // ell, p) == 1 for ell in base_primes):
            continue
        for start in range(0, tails, _SEARCH_BATCH):
            j = np.arange(start, min(start + _SEARCH_BATCH, tails), dtype=np.int64)
            coeffs = np.empty((len(j), n), dtype=np.int64)
            coeffs[:, 0] = c0
            coeffs[:, 1:] = j[:, None] // powers % p
            one, *proper = _is_identity_at(_companion(coeffs, p), exponents, p)
            hits = np.flatnonzero(one & ~np.any(proper, axis=0))
            if hits.size:
                return tuple(coeffs[hits[0]].tolist())
    raise NotIrreducible(f"GF({p}^{n}): no primitive modulus")


class _CodedField:
    """GF(p^n) = GF(p)[x]/(f) on integer codes 0..p^n-1, the code of
    sum d_i x^i being sum d_i p^i, for the least primitive monic f of
    degree n in ``Place.sort_key`` order (``_primitive_modulus``; its
    coefficients below x^n are ``modulus``).  x generates the unit group:
    exp[i] is the code of x^i and log inverts it.  The tables are numpy
    log/exp tables for multiplication, digit-wise addition, a
    quadratic-character table (chi(x^i) = (-1)^i), and the character sums
    of ``_transform_sums``, each built on first use: at most two transform
    tables, for A = 1 and A = x, and the three sums S(0, x^j) of one pass
    over exp when 3 divides p^n - 1.  Nothing here uses ``ffield``'s field
    arithmetic, and before any table is read, exp must start at 1 and hit
    all p^n - 1 nonzero codes, else ``InternalInconsistency``."""

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.N = p**n
        self.weights = p ** np.arange(n, dtype=np.int64)
        self.modulus = _primitive_modulus(p, n)
        # exp by doubling on digit vectors: multiplication by x^m is the
        # GF(p)-linear map C^m, C the matrix of x, so exp[m:2m] = exp[:m] x^m
        # is one matrix product
        order = self.N - 1
        step_matrix = _companion(np.array([self.modulus], dtype=np.int64), p)[0]
        digits = np.zeros((order, n), dtype=np.int64)
        digits[0, 0] = 1
        filled = 1
        while filled < order:
            step = min(filled, order - filled)
            digits[filled : filled + step] = digits[:step] @ step_matrix % p
            filled += step
            step_matrix = step_matrix @ step_matrix % p
        exp = digits @ self.weights
        del digits
        log = np.full(self.N, -1, dtype=np.int64)
        log[exp] = np.arange(order)
        if exp[0] != 1 or log[1:].min() < 0:
            f = (*self.modulus, 1)
            raise InternalInconsistency(
                f"GF({p}^{n}): the powers of x modulo {f} (low degree first) hit "
                f"{int(np.count_nonzero(log[1:] >= 0))} of its {order} nonzero elements"
            )
        # zero gets a sentinel log so that products through the extended
        # exponent table come out zero with no masking
        log[0] = 2 * order
        exp_ext = np.zeros(4 * order + 1, dtype=np.int64)
        exp_ext[:order] = exp
        exp_ext[order : 2 * order] = exp
        self.exp, self.log, self.exp_ext = exp, log, exp_ext
        chi = np.zeros(self.N, dtype=np.int8)
        chi[exp[0::2]] = 1
        chi[exp[1::2]] = -1
        self.chi = chi
        # j -> S(gen^j, .) for j in {0, 1} (``_build_sum_tables``), and
        # S(0, gen^j) for j < 3 when 3 divides N - 1 (``_transform_sums``)
        self.sum_tables: dict = {}
        self.cube_sums = None

    def mul(self, a, b):
        """Elementwise product of broadcastable code arrays."""
        return self.exp_ext[self.log[a] + self.log[b]]

    def add(self, a, b):
        """Elementwise sum of broadcastable code arrays, digit by digit."""
        out = (a + b) % self.p
        for w in self.weights[1:]:
            out = out + (a // w + b // w) % self.p * w
        return out

    def eval_poly(self, coeffs, points):
        """Evaluate a polynomial with scalar coefficient codes at an array of
        points, by Horner.  Each step adds its coefficient c only on c's
        nonzero base-p digits: digit i of acc + c_i p^i carries exactly when
        acc mod p^(i+1) >= (p - c_i) p^i, and then p^(i+1) comes off.  Over a
        prime base that is the low digit alone."""
        if not len(coeffs):
            return np.zeros_like(points)
        p = self.p
        acc = np.full_like(points, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = self.mul(acc, points)
            w, c = 1, int(c)
            while c:
                c, digit = divmod(c, p)
                if digit:
                    carry = acc % (p * w) >= (p - digit) * w
                    acc += digit * w
                    np.subtract(acc, p * w, out=acc, where=carry)
                w *= p
        return acc


_CODED_CACHE: dict = {}


def coded_field(p: int, n: int) -> _CodedField:
    key = (p, n)
    if key not in _CODED_CACHE:
        _CODED_CACHE[key] = _CodedField(p, n)
    return _CODED_CACHE[key]


# ---------------------------------------------------------------------------
# the good-fiber character-sum kernel

# transform-matrix entries per vectorized step: bounds the kernel's
# temporaries when p is large
_BLOCK = 1 << 14


def _transform_prime(p: int, n: int):
    """The least prime r = 1 (mod p) with r > 2 p^n + 1, and the powers
    w^0..w^(p-1) mod r of a primitive p-th root of unity w.  A transform
    step sums p products of residues mod r in int64, so p r^2 < 2^63."""
    N = p**n
    r = (2 * N + 1) // p * p + 1
    while r <= 2 * N + 1 or not _is_prime(r):
        r += p
    if p * r * r >= 1 << 63:
        raise PlaceBudgetExceeded(
            f"GF({p}^{n}) is too large for the exact transform: p r^2 >= 2^63 for r = {r}"
        )
    g = 2
    while pow(g, (r - 1) // p, r) == 1:
        g += 1
    w = pow(g, (r - 1) // p, r)
    return r, np.array([pow(w, e, r) for e in range(p)], dtype=np.int64)


def _digit_transform(rows, p: int, n: int, powers, r: int):
    """The Fourier transform of functions on the additive group (Z/p)^n,
    values mod r, one per row of the (m, p^n) int64 array ``rows`` of
    residues in [0, r): along every base-p digit axis, out[k] = sum_j
    w^(j k) a[j] with w^e = powers[e].  The matrix (w^(j k)) goes in blocks
    of at most ``_BLOCK`` entries, each applied to every row at once.  The
    first block is built once per call: for p^2 <= ``_BLOCK`` it is the
    whole matrix, so no axis builds one.  An axis multiplies the largest
    entry by at most p (r - 1), so the entries are reduced mod r only
    before an axis that could pass 2^63 otherwise, and once at the end;
    each axis holds two arrays the size of ``rows``."""
    m, j = len(rows), np.arange(p)
    step = max(1, _BLOCK // p)
    first = powers[np.outer(j[:step], j) % p]
    a, bound = rows, r - 1  # no entry of a exceeds bound
    for i in range(n):
        if p * (r - 1) * bound >= 1 << 63:  # never at i = 0, since p r^2 < 2^63
            a %= r
            bound = r - 1
        a = a.reshape(m * p**i, p, -1)
        out = np.empty_like(a)
        for k in range(0, p, step):
            w = first if k == 0 else powers[np.outer(j[k : k + step], j) % p]
            np.matmul(w, a, out=out[:, k : k + step])
        a, bound = out, p * (r - 1) * bound
    a %= r
    return a.reshape(m, -1)


def _build_sum_tables(cf: _CodedField, classes) -> None:
    """cf.sum_tables[j] = S(gen^j, b) = sum_x chi(x^3 + gen^j x + b) for
    every code b, for each j in ``classes``, a subset of {0, 1}.  S(a0, .)
    is the convolution over the additive group of the histogram of
    -(x^3 + a0 x) with chi, by the digit-axis transform modulo the prime
    r > 2N + 1, lifted to (-r/2, r/2].  One forward transform takes chi
    and each class's histogram as stacked rows, and one inverse transform
    the stacked products of spectra; chi's transform is computed here, so
    only when a table is built."""
    p, n = cf.p, cf.n
    r, powers = _transform_prime(p, n)
    inverse = powers[-np.arange(p) % p]
    unscale = pow(cf.N, -1, r)
    rows = np.empty((1 + len(classes), cf.N), dtype=np.int64)
    rows[0] = cf.chi
    rows[0] %= r
    x = np.arange(cf.N, dtype=np.int64)
    x2 = cf.mul(x, x)
    for row, j in enumerate(classes, 1):
        # -(x^3 + a0 x) = (-1) x (x^2 + a0), a0 = gen^j
        rows[row] = np.bincount(cf.mul(cf.mul(cf.add(x2, cf.exp[j]), x), p - 1), minlength=cf.N)
    del x, x2  # each stacked array is dropped once read, to bound the peak
    spectra = _digit_transform(rows, p, n, powers, r)
    del rows
    products = spectra[1:] * spectra[0]  # each histogram's spectrum times chi's
    del spectra
    products %= r
    S = _digit_transform(products, p, n, inverse, r) * unscale % r
    # |S| <= N < r/2 < 2^31, since p r^2 < 2^63
    for j, row in zip(classes, S):
        cf.sum_tables[j] = np.where(row > r // 2, row - r, row).astype(np.int32)


def _transform_sums(cf: _CodedField, A, B):
    """S = sum over x in the field of chi(x^3 + A x + B), one sum per entry
    of the code arrays A and B, exact.

    Under x -> lambda x, S(A, B) = chi(lambda) S(lambda^-2 A, lambda^-3 B),
    since chi(lambda^3) = chi(lambda).  A nonzero A = gen^a moves to gen^j,
    j = a mod 2, by lambda = gen^(a // 2): a lookup in one of the field's
    two transform tables (``_build_sum_tables``, on first use).  For A = 0,
    lambda = gen^(b // 3) moves B = gen^b to gen^(b mod 3) when 3 divides
    N - 1, where S(0, gen^j) = chi(gen^j) (1 + 3 sum chi(1 + gen^i)) over
    i = -j mod 3 (the nonzero cubes are gen^(i + j)), 1 + gen^i being exp[i]
    with its low digit raised by one: one O(N) pass per field.  Otherwise
    cubing permutes the field and every S(0, B) is 0, as is S(0, 0)."""
    L = cf.N - 1
    out = np.zeros(len(A), dtype=np.int64)
    nonzero = A != 0
    a = cf.log[A[nonzero]]
    j, m = a % 2, a // 2
    missing = [c for c in (0, 1) if c not in cf.sum_tables and (j == c).any()]
    if missing:
        _build_sum_tables(cf, missing)
    B_scaled = cf.mul(B[nonzero], cf.exp[-3 * m % L])
    S = np.zeros(len(a), dtype=np.int64)
    for c, table in cf.sum_tables.items():
        pick = j == c
        S[pick] = table[B_scaled[pick]]
    out[nonzero] = np.where(m % 2, -S, S)
    zero = ~nonzero & (B != 0)
    if L % 3 == 0 and zero.any():
        if cf.cube_sums is None:
            p, exp = cf.p, cf.exp
            chi_1 = cf.chi[exp + np.where(exp % p == p - 1, 1 - p, 1)]  # chi(1 + gen^i)
            cf.cube_sums = np.array(
                [int(cf.chi[exp[j]]) * (1 + 3 * int(chi_1[-j % 3 :: 3].sum())) for j in range(3)]
            )
        b = cf.log[B[zero]]
        out[zero] = np.where(b // 3 % 2, -1, 1) * cf.cube_sums[b % 3]
    return out


class _Level:
    """The codes of GF(q) in GF(q^n) (indexed by sum key[i] p^i),
    Frobenius-orbit representatives t of GF(q^n) (one per orbit of
    t -> t^q), their orbit lengths, whether the fiber at t is good, and
    S(t) at the good ones (0 at the bad ones).  A plain class: a dataclass
    would add its code generation to the import time."""

    def __init__(self, cf: _CodedField, emb, t, lengths, good, S):
        self.cf, self.emb, self.t, self.lengths, self.good, self.S = cf, emb, t, lengths, good, S


class _CharSums:
    """The character sums S(t) = sum_x chi(x^3 + A(t) x + B(t)) of one model,
    level by level, feeding both the point counts and the good local factors.

    y^2 = x^3 + A x + B is the short model minimalized at every finite
    place, so its good locus is that of the minimal regular model: the t
    with 4 A(t)^3 != -27 B(t)^2, read from A and B (``coeffs`` holds their
    codes) with no Delta evaluated.  Level n works in GF(q^n) =
    coded_field(p, k n) for q = p^k, with GF(q) embedded by one root of its
    modulus.  S is constant on Frobenius orbits (chi commutes with
    t -> t^q and A, B have coefficients in GF(q)), so it is read once per
    orbit, at the member of least log, from the transform tables of
    ``_transform_sums``."""

    def __init__(self, model: WeierstrassModel):
        field = model.field
        self.p, self.k, self.q = field.p, field.degree, field.q
        self.modulus = list(field.modulus) if self.k > 1 else None

        def base_code(c):
            return sum(v * self.p**i for i, v in enumerate(field.raw_key(c)))

        self.base_code = base_code
        self.coeffs = [[base_code(c) for c in f.coeffs] for f in model.minimal_short]
        self.levels: dict[int, _Level] = {}
        self.euler: dict = {}  # (d, fiber place keys) -> ``euler_factors``' (t, a_v)

    def _embedding(self, cf: _CodedField):
        codes = np.arange(self.q, dtype=np.int64)
        if self.k == 1:
            return codes
        # a root r of the modulus in the copy of GF(q)* inside cf
        sub = cf.exp[:: (cf.N - 1) // (self.q - 1)]
        r = int(sub[np.flatnonzero(cf.eval_poly(self.modulus, sub) == 0)[0]])
        emb = np.zeros(self.q, dtype=np.int64)
        power = 1
        for i in range(self.k):
            emb = cf.add(emb, cf.mul(codes // self.p**i % self.p, power))
            power = int(cf.mul(power, r))
        return emb

    def level(self, n: int) -> _Level:
        if n not in self.levels:
            cf = coded_field(self.p, self.k * n)
            emb = self._embedding(cf)
            key = (self.p, self.k * n, self.q)
            if key not in _ORBITS:
                L = cf.N - 1
                logs = np.arange(L, dtype=np.int64)
                least = logs.copy()
                lengths = np.full(L, n, dtype=np.int64)
                for i in range(n - 1, 0, -1):
                    image = logs * pow(self.q, i, L) % L
                    np.minimum(least, image, out=least)
                    lengths[image == logs] = i
                rep = least == logs
                t = np.concatenate(([0], cf.exp[rep]))
                lengths = np.concatenate(([1], lengths[rep]))
                for arr in (t, lengths):
                    arr.setflags(write=False)
                _ORBITS[key] = t, lengths
            t, lengths = _ORBITS[key]
            A, B = (cf.eval_poly(emb[c], t) for c in self.coeffs)
            # Delta = -16 (4 A^3 + 27 B^2) and -16 is a unit for p >= 5
            mul, p = cf.mul, self.p
            good = mul(mul(mul(A, A), A), 4) != mul(mul(B, B), -27 % p)
            S = np.zeros(len(t), dtype=np.int64)
            S[good] = _transform_sums(cf, A[good], B[good])
            self.levels[n] = _Level(cf, emb, t, lengths, good, S)
        return self.levels[n]

    def good_traces(self, d: int):
        """(t, a_v): the root t of least log of every good finite place of
        degree d, and a_v = -S(t) there."""
        lv = self.level(d)
        pick = lv.good & (lv.lengths == d)
        return lv.t[pick], -lv.S[pick]


def _char_sums(model: WeierstrassModel) -> _CharSums:
    """The model's character-sum tables, built on first use and kept on the
    model, so every count and local factor of one surface shares them."""
    cs = model.__dict__.get("_char_sums")
    if cs is None:
        cs = model.__dict__["_char_sums"] = _CharSums(model)
    return cs


_ORBITS: dict = {}  # (p, kn, q) -> (orbit representatives, lengths), read-only
_PLACE_KEYS: dict = {}  # (field key, d) -> {orbit representative code: key}


def place_keys(model: WeierstrassModel, d: int, t) -> list:
    """Place.sort_key() of the place of degree d with root t, for each code
    t among the orbit representatives of the kernel's level d: the key of
    prod_i (X - t^(q^i)).  The keys of every representative are computed
    once per (field value, d) per process."""
    table_key = (model.field.key, d)
    table = _PLACE_KEYS.get(table_key)
    if table is None:
        kernel = _char_sums(model)
        lv = kernel.level(d)
        cf, L, p, q = lv.cf, lv.cf.N - 1, kernel.p, kernel.q
        # low coefficient first
        coeffs = [np.ones_like(lv.t)]
        for i in range(d):
            conj = lv.t if i == 0 else cf.exp[cf.log[lv.t] * pow(q, i, L) % L]
            neg = cf.mul(conj, p - 1)
            coeffs = (
                [cf.mul(neg, coeffs[0])]
                + [cf.add(lo, cf.mul(neg, hi)) for lo, hi in zip(coeffs, coeffs[1:])]
                + [coeffs[-1]]
            )
        base = np.zeros(cf.N, dtype=np.int64)
        base[lv.emb] = np.arange(q)
        key_of = [tuple(b // p**i % p for i in range(kernel.k)) for b in range(q)]
        rows = np.stack([base[c] for c in coeffs], axis=1).tolist()
        keys = [(1, d) + tuple(key_of[b] for b in row) for row in rows]
        table = _PLACE_KEYS[table_key] = dict(zip(lv.t.tolist(), keys))
    return list(map(table.__getitem__, t.tolist()))


def _infinity_fiber(model: WeierstrassModel, fibers: list[FiberData]) -> FiberData:
    """The fiber at infinity: one injected in ``fibers`` wins over the
    model's own (Tate's algorithm, computed once per model)."""
    for f in fibers:
        if f.place.is_infinity:
            return f
    return model.infinity_fiber


# ---------------------------------------------------------------------------
# surface point counts


def surface_counts(
    model: WeierstrassModel,
    fibers: list[FiberData],
    n_max: int,
) -> tuple:
    """(#X(GF(q^n)) for n = 1..n_max) over the minimal regular model.

    The good fibers over affine t contribute q^n + 1 + S(t) each, summed
    over Frobenius orbits by the character-sum kernel; each bad place of
    degree d | n is replaced by the component count of its minimal regular
    fiber over the degree n/d extension of its residue field."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    q = model.field.q
    inf_fiber = _infinity_fiber(model, fibers)
    bad_finite = [f for f in fibers if not f.place.is_infinity and not f.is_good]

    kernel = _char_sums(model)
    counts = []
    for n in range(1, n_max + 1):
        lv = kernel.level(n)
        total = int((lv.lengths * (q**n + 1 + lv.S))[lv.good].sum())
        for f in bad_finite:
            if n % f.d_v == 0:
                total += f.d_v * fiber_point_count(f, n // f.d_v)
        total += fiber_point_count(inf_fiber, n)
        counts.append(total)
    return tuple(counts)


# ---------------------------------------------------------------------------
# P2 from counts


def p2_from_counts(counts: tuple, inv: SurfaceInvariants, q: int) -> Poly:
    """Reconstruct P2 from point counts via Newton identities and the
    weight-2 functional equation; every supplied count is re-verified."""
    b2 = inv.b2
    half = (b2 + 1) // 2
    if len(counts) < half:
        raise TruncationInsufficient(
            f"need counts to n = {half}, got {len(counts)}"
        )
    sums = [counts[k - 1] - 1 - q ** (2 * k) for k in range(1, len(counts) + 1)]
    partial = newton_from_power_sums(sums[:half], half)
    candidates = []
    for sign in (1, -1):
        try:
            cand = functional_equation_complete(partial, b2, q, sign)
        except NoConsistentSign:
            continue
        if not is_integral(cand):
            continue
        if power_sums(cand, len(sums)) == sums:
            candidates.append(cand)
    uniq = []
    for c in candidates:
        if c not in uniq:
            uniq.append(c)
    if len(uniq) == 1:
        return uniq[0]
    if len(uniq) > 1:
        # happens when the middle coefficient vanishes and no surplus count
        # separates the two self-dual completions
        raise NoConsistentSign(
            "functional-equation sign ambiguous; supply one more point count"
        )
    raise InconsistentCounts("no functional-equation sign reproduces the counts")


def lefschetz_counts(p2: Poly, q: int, n_max: int) -> list[int]:
    """Predicted #X(GF(q^n)) from a degree-2 polynomial: 1 + q^(2n) + s_n."""
    sums = power_sums(p2, n_max)
    return [int(1 + q ** (2 * k) + sums[k - 1]) for k in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# the L-function


def _divide_power(series: list[int], c: tuple, d: int, m: int) -> list[int]:
    """series / c(t^d)^m to the same order, for c in 1 + T Z[T].  The
    coefficients of w = c^(-m) follow J. C. P. Miller's power recurrence
    n w_n = sum_{k=1}^n ((1 - m) k - n) c_k w_{n-k} (Knuth, TAOCP vol. 2,
    sec. 4.7); w has integer coefficients, so each // is exact."""
    w = [1]
    for n in range(1, (len(series) - 1) // d + 1):
        terms = range(1, min(n, len(c) - 1) + 1)
        w.append(sum(((1 - m) * k - n) * c[k] * w[n - k] for k in terms) // n)
    out = list(series)
    for n in range(1, len(w)):
        for i in range(n * d, len(series)):
            out[i] += w[n] * series[i - n * d]
    return out


def euler_factors(
    model: WeierstrassModel,
    fibers: list[FiberData],
    order: int,
) -> tuple[dict, dict]:
    """(fiber factors, good traces) at every place of degree <= order: the
    fiber factors {Place.sort_key(): (d_v, L_v)}, L_v in the local variable
    T = q_v^(-s), at each place with a fiber (an injected fiber wins) and
    at infinity (Tate's algorithm when it has none); the good traces
    {d: (t, a_v)}, the kernel's ``good_traces(d)`` less the roots t of
    those fibers' pi, each place with the factor 1 - a_v T + q^d T^2: built
    once per model and sort keys of those places, then shared read-only."""
    everywhere = [*fibers, _infinity_fiber(model, fibers)]
    own = {f.place.sort_key(): f for f in everywhere if f.d_v <= order}
    kernel = _char_sums(model)
    good = {}
    for d in range(1, order + 1):
        pis = {key: f.place.poly for key, f in own.items() if f.d_v == d and key != (0,)}
        places = d, frozenset(pis)
        if places not in kernel.euler:
            lv = kernel.level(d)
            t, a_v = kernel.good_traces(d)
            for pi in pis.values():
                keep = lv.cf.eval_poly([lv.emb[kernel.base_code(c)] for c in pi.coeffs], t) != 0
                t, a_v = t[keep], a_v[keep]
            for arr in (t, a_v):  # shared by every caller: read-only
                arr.setflags(write=False)
            kernel.euler[places] = t, a_v
        good[d] = kernel.euler[places]
    return {key: (f.d_v, f.l_factor) for key, f in own.items()}, good


def _euler_series(model, fibers, order: int, reverse: bool = False) -> list[int]:
    """prod_v L_v(t^{d_v})^(-1) over ``euler_factors`` to t^order, on
    integers.  A factor of degree d with 2 d > order reaches the order only
    through its -c_1 t^d, and the product of two such terms lies past the
    order, so these factors together are 1 + sum_d s_d t^d, s_d the sum of
    -c_1 over the factors of degree d (sum a_v at its good places): the
    series starts there.  It is then divided by each distinct (d, L_v) with
    2 d <= order once, raised to its count: the good traces of degree d are
    grouped by value.  ``reverse`` divides by those groups in reverse
    order."""
    fiber_factors, good = euler_factors(model, fibers, order)
    series = [1] + [0] * order
    groups = Counter()
    for d, f in fiber_factors.values():
        c = f.coeffs
        if f.coeff(0) != 1 or any(x.denominator != 1 for x in c):
            raise NonPolynomialTail(f"local factor {[str(x) for x in c]} is not in 1 + T Z[T]")
        if 2 * d > order:
            series[d] -= int(f.coeff(1))
        else:
            groups[d, tuple(map(int, c))] += 1
    for d, (_, a_v) in good.items():
        if 2 * d > order:
            series[d] += int(a_v.sum())
            continue
        # np.bincount is in the kernel's working set already; np.unique's
        # first sort would raise every run's peak RSS by about 0.3 MB
        low = int(a_v.min(initial=0))
        counts = np.bincount(a_v - low)
        for i in np.flatnonzero(counts).tolist():
            groups[d, (1, -low - i, model.field.q**d)] += int(counts[i])
    for (d, c), m in reversed(groups.items()) if reverse else groups.items():
        series = _divide_power(series, c, d, m)
    return series


def l_function(
    model: WeierstrassModel,
    fibers: list[FiberData],
    inv: SurfaceInvariants,
    order: int,
    use_functional_equation: bool = False,
    reverse: bool = False,
) -> Poly:
    """The L-function of the generic-fiber Jacobian as a polynomial in t.

    Expands the Euler product (``_euler_series``, with ``reverse``) to
    degree ``order`` on integer coefficients (every fiber factor must lie in
    1 + T Z[T]); the coefficients past deg_l must vanish.  With
    ``use_functional_equation`` the expansion is completed by the weight-2
    self-duality.  When the middle coefficient vanishes both signs complete
    it; the + completion is taken and nothing checks it against point
    counts, so it can be the wrong one."""
    deg_l = inv.deg_l
    if order == 0:
        return Poly(QQ, [1])
    series = _euler_series(model, fibers, order, reverse)
    if use_functional_equation:
        cand = functional_equation_complete(Poly(QQ, series), deg_l, model.field.q)
        if not is_integral(cand):
            raise NonPolynomialTail("completed L-polynomial is not integral")
        return cand
    for k in range(deg_l + 1, order + 1):
        if series[k] != 0:
            raise NonPolynomialTail(
                f"series coefficient t^{k} = {series[k]} does not vanish"
            )
    out = Poly(QQ, series[: deg_l + 1])
    if out.degree != deg_l:
        raise TruncationInsufficient(
            f"L-polynomial degree {out.degree} below conductor prediction {deg_l}"
        )
    return out


# ---------------------------------------------------------------------------
# the bad-fiber correction product


def bad_correction(fibers: list[FiberData], q: int):
    """(Q, its leading term at t = 1/q, m).  Q is the integral polynomial
    prod (1 - q_v^r t^{r d_v}) over the non-identity component orbits (r, _)
    of the bad fibers: each fiber's degree-2 local factor, the product over
    all its orbits, divided by (1 - q_v t^{d_v}), which the identity orbit
    (r = 1 in every Kodaira type) cancels."""
    poly = Poly(QQ, [1])
    m = 0
    for f in fibers:
        if f.is_good:
            continue
        for r, _ in f.components[1:]:
            poly = poly * Poly(QQ, [1] + [0] * (r * f.d_v - 1) + [-(f.q_v**r)])
        m += f.m_v - 1
    return poly, leading_term(poly, q), m


def p2_from_product(
    l_poly: Poly,
    correction: Poly,
    inv: SurfaceInvariants,
    q: int,
) -> Poly:
    """P2 as the product (1 - qt)^2 * L * Q in Z[t], which must have degree b2."""
    poly = Poly(QQ, [1, -q]) ** 2 * l_poly * correction
    if poly.degree != inv.b2:
        raise NonPolynomial(f"product has degree {poly.degree}, expected {inv.b2}")
    return poly

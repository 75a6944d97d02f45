"""The good-place oracle: a pure-Python point count at every finite place
of P^1 of low degree, against which ``verify.check_good_place_sanity``
holds the Euler product's local factors.  It imports only the standard
library, ``ffield`` and ``errors``, so it shares no code or tables with
the character-sum kernel it audits.  ``tatefiber`` counts a good infinity
with it too.

All places of degree d share one model F of GF(q^d): the base field at
d = 1, else the field modulo ``find_irreducible(field, d)``.
``place_model`` lists them by keying each generator theta = g^i of F by
its minimal polynomial, read off F's discrete-log tables: its Frobenius
orbit is the exponents i q^j, and each coefficient a sum of powers of g
at the exponent sums of subsets of that orbit, so each place comes with a
root in F and its log, its residue field through t -> theta.
``place_lists`` holds each list to the necklace count; any other length is
an internal error (exit 4).

The counts read discrete-log tables of F built with F's own ``raw_mul``:
the powers of a primitive element g, which must hit every nonzero element
before any count reads them, indexed by ``raw_key`` digits, with the cubes
and the number of square roots of every element read off the exponents.
a4 and a6 reduce at the log of a place's root, kept with the place, as
one table read per term in an exact digit radix, straight to what the
count reads: the x = 0 term plus one flat loop over x = g^i.  F, its
place list with sort keys and its tables are built once per field value
per process; the necklace count and every point count run on each call.
"""

from __future__ import annotations

import itertools
import operator

from .errors import InternalInconsistency
from .ffield import ExtensionField, Place, Poly, factorize, find_irreducible, irreducible_count

# ---------------------------------------------------------------------------
# point counts on discrete-log tables


_COUNTER_TABLES: dict = {}  # field key -> the tables of ``_counter_tables``


def _primitive_element(kv):
    """The first g in ``raw_values`` order with g^((q - 1)/r) != 1 for every prime r | q - 1."""
    return next(g for g in kv.raw_values() if g != kv.zero
                and all(kv.raw_pow(g, (kv.q - 1) // r) != kv.one for r in factorize(kv.q - 1)))


def _counter_tables(kv):
    """(by_p, by_3p, exp, log, cubes, roots, spread, powers): kv's
    discrete-log tables, built once per field value per process.

    An element's code sums its base-p digits (``raw_key``) times by_p =
    (p^j), its 3p-code times by_3p = ((3p)^j).  For g from
    ``_primitive_element``, exp[i] is the 3p-code of g^i (i < 2(q - 1), so
    exp[log A + i] needs no reduction), log[code] its exponent (None at 0),
    cubes[i] = exp[3i mod (q - 1)].  The powers must hit all q - 1 nonzero
    codes, else ``InternalInconsistency``.  B + x^3 + A x summed on 3p-codes
    has digits below 3p and indexes ``roots`` unreduced: 1 at 0, 2 at an even
    power of g, 0 at an odd one.  ``spread``: exp in ``_specializer``'s radices.
    powers[i]: the raw value of g^i, i < q - 1."""
    if kv.key in _COUNTER_TABLES:
        return _COUNTER_TABLES[kv.key]
    p, m, key, mul = kv.p, kv.q - 1, kv.raw_key, operator.mul
    g, x = _primitive_element(kv), kv.one
    by_p = [p**j for j in range(len(key(x)))]
    by_3p = [(3 * p) ** j for j in range(len(by_p))]
    log, exp, powers = [None] * kv.q, [], []
    for i in range(m):
        digits = key(x)
        log[sum(map(mul, digits, by_p))] = i
        exp.append(sum(map(mul, digits, by_3p)))
        powers.append(x)
        x = kv.raw_mul(x, g)
    if log[0] is not None or None in log[1:]:
        raise InternalInconsistency(f"the powers of the generator of GF({kv.q}) hit "
                                    f"{m - log[1:].count(None)} of its {m} nonzero elements")
    exp += exp
    roots = bytearray((3 * p) ** len(by_p))
    for c in itertools.product(range(3), repeat=len(by_p)):
        off = p * sum(map(mul, c, by_3p))  # z + p c reads as z
        roots[off] = 1
        for square in exp[:m:2]:
            roots[square + off] = 2
    cubes = [exp[3 * i % m] for i in range(m)]
    _COUNTER_TABLES[kv.key] = by_p, by_3p, exp, log, cubes, memoryview(roots), {}, powers
    return _COUNTER_TABLES[kv.key]


def _log_counter(kv):
    """(log A, None at A = 0; the 3p-code of B) -> #{y^2 = x^3 + A x + B}:
    x = 0, then one flat loop over x = g^i."""
    _, _, exp, _, cubes, roots, *_ = _counter_tables(kv)
    m, add = len(cubes), operator.add

    def count(i, b) -> int:
        at = roots[b:]
        if i is None:
            return at[0] + sum(map(at.__getitem__, cubes))
        return at[0] + sum(map(at.__getitem__, map(add, cubes, exp[i : i + m])))

    return count


def affine_point_counter(kv):
    """(A, B) -> #{(x,y) in kv^2 : y^2 = x^3 + A x + B} on raw values of
    kv, read from kv's discrete-log tables (``_counter_tables``)."""
    by_p, by_3p, _, log, *_ = _counter_tables(kv)
    count, key, mul = _log_counter(kv), kv.raw_key, operator.mul
    return lambda a, b: count(log[sum(map(mul, key(a), by_p))], sum(map(mul, key(b), by_3p)))


def _specializer(kv, a: Poly, b: Poly):
    """log theta (None at theta = 0) -> (log a(theta), None at 0; the
    3p-code of b(theta)), the arguments of ``_log_counter``, for Polys over
    kv or a subfield (whose c keys as the constant c of kv).

    A nonzero term c_j theta^j = g^(log c_j + j log theta) is one read of exp
    recoded in radix 2^w, w the bit length of (p - 1) times the most terms
    of a or b: no digit sum reaches 2^w, so the reads add up exactly, and
    each digit is reduced mod p once, straight into the code."""
    by_p, by_3p, exp, log, cubes, _, spread, _ = _counter_tables(kv)
    p, m, mul = kv.p, len(cubes), operator.mul
    terms = [[(log[sum(map(mul, f.field.raw_key(c), by_p))], j)
              for j, c in enumerate(f.coeffs) if c != f.field.zero] for f in (a, b)]
    width = (max(1, *map(len, terms)) * (p - 1)).bit_length()
    shifts, mask = [width * j for j in range(len(by_p))], (1 << width) - 1
    if width not in spread:
        spread[width] = [sum(c // w % (3 * p) << s for w, s in zip(by_3p, shifts)) for c in exp[:m]]
    wide = spread[width]

    def code(total: int, radix) -> int:  # total's digits reduced mod p, in radix
        out = 0
        for w in radix:
            out, total = out + (total & mask) % p * w, total >> width
        return out

    def values(i) -> tuple:
        total_a, total_b = (sum(wide[lc] for lc, j in f if j == 0) if i is None
                            else sum([wide[(lc + j * i) % m] for lc, j in f]) for f in terms)
        return log[code(total_a, by_p)], code(total_b, by_3p)

    return values


# ---------------------------------------------------------------------------
# the places of each degree, and the recount


_PLACE_MODELS: dict = {}  # (field key, d) -> the (F, roots) of ``place_model``


def place_model(field, d: int) -> tuple:
    """(F, roots): F the model of GF(q^d) (``field`` itself at d = 1, else
    modulo ``find_irreducible(field, d)``), and for every monic irreducible
    pi over ``field`` of degree d, in sort-key order, (``Place.sort_key()`` of
    pi, the raw coefficients of pi, the raw value of one root theta of pi
    in F, the discrete log of theta in F's counter tables, None at 0).
    Built once per (field value, d) per process, as raw values and keys."""
    key = (field.key, d)
    if key not in _PLACE_MODELS:
        F = field if d == 1 else ExtensionField(field, find_irreducible(field, d).coeffs,
                                                check_irreducible=False)
        _PLACE_MODELS[key] = F, tuple(((1, d) + tuple(map(field.raw_key, pi)), pi, theta, i)
                                      for pi, theta, i in _minimal_polynomials(field, F))
    return _PLACE_MODELS[key]


def _minimal_polynomials(base, F) -> tuple:
    """(raw coefficients of pi, root theta, log theta) for ``place_model``,
    sorted: monic coefficient tuples of one length sort as their places do.

    At d = 1 the places are T - c, with root c.  Above, each generator
    theta = g^i of F (g the generator of F's counter tables, m = q^d - 1) is
    keyed by its minimal polynomial, the product of (T - g^e) over its
    Frobenius orbit, the exponents e = i q^j mod m for j < d; an orbit with
    fewer than d exponents lies in a proper subfield.  The coefficient of
    T^(d - k) is (-1)^k e_k, e_k the sum over the k-subsets of the orbit
    of g^(the subset's exponent sum); it lies in ``base``, and the sum is
    taken on the base coordinate of each power alone.  Each orbit is keyed
    once, at its least exponent."""
    by_p, _, _, log, *_, powers = _counter_tables(F)
    if F.key == base.key:
        return tuple(sorted(((base.raw_neg(c), base.one), c,
                             log[sum(map(operator.mul, base.raw_key(c), by_p))])
                            for c in base.raw_values()))
    d, q, m = F.degree, base.q, F.q - 1
    add, neg = base.raw_add, base.raw_neg
    seen = bytearray(m)
    roots = []
    for i in range(m):
        if seen[i]:
            continue
        orbit = {i * pow(q, j, m) % m for j in range(d)}
        for e in orbit:
            seen[e] = 1
        if len(orbit) < d:
            continue  # g^i lies in a proper subfield
        coeffs = [base.one]  # the product, high degree first
        for k in range(1, d + 1):
            e_k = base.zero
            for subset in itertools.combinations(orbit, k):
                e_k = add(e_k, powers[sum(subset) % m][0])  # its base coordinate
            coeffs.append(neg(e_k) if k % 2 else e_k)
        roots.append((tuple(reversed(coeffs)), powers[i], i))
    return tuple(sorted(roots))


def place_lists(field, degree: int) -> list:
    """[(d, F, roots) of ``place_model``] for d = 1..degree, each list of
    places checked against the necklace count on every call."""
    lists = []
    for d in range(1, degree + 1):
        F, roots = place_model(field, d)
        expected = irreducible_count(field.q, d)
        if len(roots) != expected:
            raise InternalInconsistency(
                f"place list of degree {d} over GF({field.q}) holds {len(roots)} "
                f"places, not {expected}"
            )
        lists.append((d, F, roots))
    return lists


def recount(field, lists, a4: Poly, a6: Poly, factors: dict, bad: set):
    """(places checked, None), or at the first place of ``lists`` whose
    L_v(1) in ``factors`` (by sort key) is not its point count on y^2 = x^3 +
    a4 x + a6, (places checked, (L_v(1), count, the place's label)).  Places
    whose key is in ``bad`` are skipped; every other place is counted at
    its root's log, with a4 and a6 reduced there by one ``_specializer``
    per degree."""
    checked = 0
    for d, F, roots in lists:
        count, values = _log_counter(F), _specializer(F, a4, a6)
        for key, pi, _, i in roots:
            if key in bad:
                continue
            at_one = factors[key]
            points = count(*values(i)) + 1
            if at_one != points:
                return checked, (at_one, points, Place("finite", Poly(field, pi), d).label())
            checked += 1
    return checked, None

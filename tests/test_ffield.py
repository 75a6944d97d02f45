import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsurf import ffield
from ellsurf.oracle import place_model
from ellsurf.errors import CharTooSmall, DivisionByZero, NotIrreducible, NotPrime
from ellsurf.ffield import (
    ExtensionField,
    Place,
    Poly,
    PrimeField,
    field_make,
    find_irreducible,
    irreducible_count,
    moebius,
    poly_is_irreducible,
    residue_field,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
F25 = ExtensionField(F5, [2, 0, 1])  # x^2 + 2
F625 = ExtensionField(F25, find_irreducible(F25, 2).coeffs)  # nested over GF(25)


def places_of_degree(field, d):
    """(place, root) from the oracle's ``place_model`` in the model of
    GF(q^d) the good-place audit uses: ``field`` itself at d = 1, else
    ``find_irreducible``."""
    return [(Place("finite", Poly(field, pi), d), theta)
            for _, pi, theta, _ in place_model(field, d)[1]]


def test_field_make_prime():
    f = field_make(5)
    assert f.q == 5
    assert f.raw_add(f.one, f.raw(4)) == f.zero == 0


def test_field_make_extension():
    # x^2 + 2 has no root mod 5: squares are {0,1,4}, -2 = 3 is not one
    assert all(pow(r, 2, 5) != 3 for r in range(5))
    f = field_make(5, [2, 0, 1])
    assert f.q == 25


def test_field_make_guards():
    with pytest.raises(CharTooSmall):
        field_make(3)
    with pytest.raises(NotPrime):
        field_make(4)
    with pytest.raises(NotIrreducible):
        field_make(5, [4, 0, 1])  # x^2 - 1 = (x-1)(x+1)


def test_inverse_f5():
    assert F5.raw_inv(2) == 3
    for a in range(1, 5):
        assert F5.raw_mul(a, F5.raw_inv(a)) == F5.one
    with pytest.raises(DivisionByZero):
        F5.raw_inv(F5.zero)


def test_frobenius_extension_matches_repeated_squaring():
    x = F25.raw([0, 1])
    # oracle: x^5 by five explicit multiplications
    expected = F25.one
    for _ in range(5):
        expected = F25.raw_mul(expected, x)
    assert F25.raw_pow(x, 5) == expected
    assert F25.raw_pow(F25.one, 5) == F25.one
    # frobenius fixes the prime field, and its square fixes GF(25)
    for c in range(5):
        assert F25.raw_pow(F25.raw(c), 5) == F25.raw(c)
    for a in F25.raw_values():
        assert F25.raw_pow(a, 25) == a


@given(st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_f25(i, j):
    elems = list(F25.raw_values())
    a, b = elems[i], elems[j]
    add, mul, pw = F25.raw_add, F25.raw_mul, F25.raw_pow
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, F25.one)) == add(mul(a, b), a)
    if a != F25.zero:
        assert mul(a, F25.raw_inv(a)) == F25.one
    # frobenius x -> x^5 is a ring homomorphism
    assert pw(add(a, b), 5) == add(pw(a, 5), pw(b, 5))
    assert pw(mul(a, b), 5) == mul(pw(a, 5), pw(b, 5))


def test_poly_divmod_and_gcd():
    f = Poly(F5, [1, 0, 1]) * Poly(F5, [3, 1])
    q, r = f.divmod(Poly(F5, [3, 1]))
    assert r.is_zero() and q == Poly(F5, [1, 0, 1])
    g = ffield.poly_gcd(f, Poly(F5, [3, 1]) * Poly(F5, [1, 1]))
    assert g == Poly(F5, [3, 1]).monic()


def test_is_square():
    """Euler's criterion against the set of squares, zero included, over
    GF(7), GF(25) and the nested GF(625)."""
    for field in (F7, F25, F625):
        squares = {field.raw_mul(v, v) for v in field.raw_values()}
        assert len(squares) == (field.q + 1) // 2
        for v in field.raw_values():
            assert field.is_square(v) == (v in squares)


def _euler(field, a) -> bool:
    return a == field.zero or field.raw_pow(a, (field.q - 1) // 2) == field.one


@pytest.mark.parametrize("p,d,sample", [(5, 2, None), (7, 2, None), (5, 3, None), (5, 8, 300)],
                         ids=["F25", "F49", "F125", "F5^8"])
def test_square_test_through_the_norm_matches_euler(p, d, sample):
    """is_square reads the norm to GF(p), Res(modulus, a) by the Euclidean
    algorithm: on every element of GF(25), GF(49) and GF(125) and on a
    seeded sample of GF(5^8) it agrees with Euler's criterion, and the norm
    is a^(1 + p + ... + p^(d-1)) embedded as a constant."""
    base = PrimeField(p)
    field = ExtensionField(base, find_irreducible(base, d).coeffs)
    if sample:
        rng = random.Random(d)
        elems = [tuple(rng.randrange(p) for _ in range(d)) for _ in range(sample)]
        elems += [field.zero, field.one]
    else:
        elems = list(field.raw_values())
    for a in elems:
        assert field.is_square(a) == _euler(field, a), a
        power = field.raw_pow(a, (field.q - 1) // (p - 1))
        assert power == field.raw(field.raw_norm(a)), a


def _naive_mul(field, a, b) -> list:
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.raw_add(out[i + j], field.raw_mul(x, y))
    return out


def _random_coeffs(field, rng, n) -> list:
    """n seeded raw values with a nonzero last one."""
    if field is F25:
        draw = lambda: (rng.randrange(5), rng.randrange(5))
    else:
        draw = lambda: rng.randrange(field.p)
    cs = [draw() for _ in range(n)]
    while cs[-1] == field.zero:
        cs[-1] = draw()
    return cs


@pytest.mark.parametrize("p", [5, 11, 1000003])
def test_prime_poly_mul_matches_a_naive_double_loop(p):
    """PrimeField.poly_mul, which adds rows as plain ints and reduces each
    coefficient once, against a double loop mod p, over both orders of the
    factors and lengths 1 to 30."""
    field, rng = PrimeField(p), random.Random(p)
    for _ in range(60):
        a = _random_coeffs(field, rng, rng.randrange(1, 31))
        b = _random_coeffs(field, rng, rng.randrange(1, 31))
        naive = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                naive[i + j] = (naive[i + j] + x * y) % p
        assert field.poly_mul(a, b) == field.poly_mul(b, a) == naive


@pytest.mark.parametrize("field", [F5, PrimeField(11), PrimeField(1000003), F25],
                         ids=["F5", "F11", "F1000003", "F25"])
def test_poly_divmod_is_division_with_remainder(field):
    """poly_divmod(a, b) = (q, r) with a = q b + r and deg r < deg b, the
    product taken by a naive double loop; divisors of degree 0 to 8, monic
    and not, and dividends shorter than the divisor."""
    rng = random.Random(field.q)
    for _ in range(60):
        a = _random_coeffs(field, rng, rng.randrange(1, 25))
        b = _random_coeffs(field, rng, rng.randrange(1, 10))
        quot, rem = field.poly_divmod(a, b)
        assert len(rem) < len(b) and (not rem or rem[-1] != field.zero)
        rebuilt = _naive_mul(field, quot, b) if quot else []
        rebuilt += [field.zero] * (len(a) - len(rebuilt))
        for i, c in enumerate(rem):
            rebuilt[i] = field.raw_add(rebuilt[i], c)
        assert rebuilt == a


def test_poly_cube_takes_two_products(monkeypatch):
    """a ** 3 is one squaring and one product by a, left to right: two
    ``poly_mul`` calls, where a right-to-left ladder makes four."""
    calls = []
    poly_mul = PrimeField.poly_mul
    monkeypatch.setattr(PrimeField, "poly_mul", lambda self, a, b: calls.append(1) or poly_mul(self, a, b))
    a = Poly(F5, [1, 2, 0, 3, 1])
    cube = a**3
    assert len(calls) == 2
    assert cube == a * a * a


@pytest.mark.parametrize("field", [F5, F25], ids=["F5", "F25"])
def test_poly_power_is_the_repeated_product(field):
    """a ** n against a * a * ... * a for n = 0..13, for a random a of
    degree 4 and for the zero polynomial (0 ** 0 = 1)."""
    rng = random.Random(field.q)
    a = Poly(field, _random_coeffs(field, rng, 5))
    for base in (a, Poly(field, [])):
        product = Poly(field, [field.one])
        for n in range(14):
            assert base**n == product, n
            product = product * base


def test_places_f2_degree3():
    # module-local context relaxing p >= 5
    f2 = PrimeField(2, _allow_small=True)
    deg3 = {v.poly.coeffs for v, _ in places_of_degree(f2, 3)}
    # oracle: Rabin's irreducibility test over GF(2)
    expected = set()
    for c0, c1, c2 in itertools.product((0, 1), repeat=3):
        f = Poly(f2, [c0, c1, c2, 1])
        if poly_is_irreducible(f):
            expected.add(f.coeffs)
    assert deg3 == expected == {(1, 1, 0, 1), (1, 0, 1, 1)}


def test_irreducibility_over_a_huge_prime_field():
    """Rabin's test needs no walk over GF(1000003): -1 is a non-square
    (p = 3 mod 4) and -2 a square there."""
    big = PrimeField(1000003)
    assert poly_is_irreducible(Poly(big, [1, 0, 1]))
    assert not poly_is_irreducible(Poly(big, [2, 0, 1]))
    assert not poly_is_irreducible(Poly(big, [1, 0, 1]) * Poly(big, [3, 0, 1]))
    assert field_make(1000003, [1, 0, 1]).q == 1000003**2


def test_places_f5_degree2_count():
    places = places_of_degree(F5, 2)
    assert len(places) == (25 - 5) // 2 == irreducible_count(5, 2)
    for v, _ in places:
        assert poly_is_irreducible(v.poly)


@pytest.mark.parametrize("q,field", [(5, F5), (9, ExtensionField(PrimeField(3, _allow_small=True), [1, 0, 1]))])
def test_degree_weighted_place_count(q, field):
    # every monic polynomial of degree n factors uniquely:
    # sum_{d | n} d * N_d = q^n
    n_max = 3
    count = {d: len(places_of_degree(field, d)) for d in range(1, n_max + 1)}
    for n in range(1, n_max + 1):
        assert count[n] == irreducible_count(q, n)
        total = sum(d * count[d] for d in range(1, n + 1) if n % d == 0)
        assert total == q**n


def test_residue_field_reduction():
    pi = Poly(F5, [2, 0, 1])  # t^2 + 2
    place = ffield.place_finite(pi)
    kv = residue_field(F5, place)
    assert kv.q == 25 and kv.modulus == pi.coeffs
    # t^2 reduces to -2 = 3
    assert kv.raw((Poly(F5, [0, 0, 1]) % pi).coeffs) == kv.raw(3) == (3, 0)
    # degree-1 place: k(v) is the base field itself
    p1 = ffield.place_finite(Poly(F5, [3, 1]))  # t + 3
    assert residue_field(F5, p1) is F5


@pytest.mark.parametrize("field", [F7, F25, F625], ids=["F7", "F25", "F625"])
@settings(max_examples=40)
@given(
    st.lists(st.integers(0, 624), min_size=1, max_size=6),
    st.lists(st.integers(0, 624), min_size=1, max_size=4),
    st.lists(st.integers(0, 624), min_size=3, max_size=3),
)
def test_poly_mul_then_divide_roundtrip(field, fc, gc, xc):
    """Poly on raw coefficients: q g + r = f with deg r < deg g, (f g) / g
    = f exactly, and evaluation at raw points is a ring map.  Codes index
    the field's raw values, so over an extension most draws have zero and
    nonzero tuple coefficients side by side."""
    values = list(field.raw_values())
    raw = lambda codes: [values[c % len(values)] for c in codes]
    f, g = Poly(field, raw(fc)), Poly(field, raw(gc) + [field.one])
    q, r = f.divmod(g)
    assert q * g + r == f and r.degree < g.degree
    q, r = (f * g).divmod(g)
    assert q == f and r.is_zero()
    for x in raw(xc):
        assert (f * g).eval(x) == field.raw_mul(f.eval(x), g.eval(x))
        assert (f - g).eval(x) == field.raw_add(f.eval(x), field.raw_neg(g.eval(x)))


# ---------------------------------------------------------------------------
# raw-value arithmetic: GF(25) = GF(5)[x]/(x^2 + 2) and a nested GF(625)


def test_raw_values_are_base_raw_values():
    assert F625.modulus[-1] == F25.one and len(F625.modulus) == 3
    x = F25.raw([3, 4])
    assert x == (3, 4)
    assert F625.raw([x, 2]) == ((3, 4), (2, 0))
    # a base value embeds as a one-entry coefficient vector, or padded with
    # zeros (``raw`` would read x itself as a vector over GF(25))
    assert F625.raw([x]) == (x,) + F625.zero[1:] == ((3, 4), (0, 0))
    assert F625.raw(x) == ((3, 0), (4, 0))
    assert F625.raw(7) == ((2, 0), (0, 0))


def test_inverses_f25_all_and_f625_sample():
    for a in F25.raw_values():
        if a != F25.zero:
            assert F25.raw_mul(a, F25.raw_inv(a)) == F25.one
    rng = random.Random(1)
    for a in rng.sample(list(F625.raw_values()), 60):
        if a != F625.zero:
            assert F625.raw_mul(a, F625.raw_inv(a)) == F625.one
    with pytest.raises(DivisionByZero):
        F625.raw_inv(F625.zero)


def test_distributivity_and_key_roundtrip_f625():
    rng = random.Random(2)
    elems = list(F625.raw_values())
    add, mul = F625.raw_add, F625.raw_mul
    for _ in range(60):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(add(a, F625.raw_neg(b)), b) == a
        assert F625.raw(a) == a
        key = F625.raw_key(a)
        assert F625.raw([key[:2], key[2:]]) == a
        assert len(key) == 4 and all(0 <= k < 5 for k in key)


def test_element_order_and_keys_unchanged():
    # raw values run in itertools.product order of the base raw values, and
    # raw_key flattens the base keys: both fix the report's place order
    expected = [sum(t, ()) for t in itertools.product([F25.raw_key(c) for c in F25.raw_values()], repeat=2)]
    keys = [F625.raw_key(e) for e in F625.raw_values()]
    assert keys == expected
    assert len(set(keys)) == 625
    assert [F25.raw_key(e) for e in F25.raw_values()] == list(itertools.product(range(5), repeat=2))


@pytest.mark.parametrize("field", [F5, F7], ids=["F5", "F7"])
def test_find_irreducible_is_first_in_enumeration_order(field):
    for d in range(1, 5):
        first, _ = places_of_degree(field, d)[0]
        assert find_irreducible(field, d) == first.poly


def test_moebius_and_is_prime_by_definition():
    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    def is_prime(n):
        return divisors(n) == [1, n] and n > 1

    for n in range(1, 101):
        primes = [d for d in divisors(n) if is_prime(d)]
        squarefree = all(n % (d * d) for d in primes)
        assert moebius(n) == ((-1) ** len(primes) if squarefree else 0)
    for n in range(201):
        assert ffield._is_prime(n) == is_prime(n)


@pytest.mark.parametrize(
    "field,degrees",
    [(F5, (1, 2, 3)), (F7, (1, 2)), (PrimeField(11), (1, 2)), (F25, (1, 2))],
    ids=["F5", "F7", "F11", "F25"],
)
def test_roots_by_minimal_polynomial_list_every_place(field, degrees):
    """At each degree d the list holds irreducible_count(q, d) distinct
    irreducible places in sort order, each of degree d with its sort key
    and a root theta, pi(theta) = 0, in the shared model of its degree.
    At d = 3 over GF(5) the coefficients are sums over 1-, 2- and 3-subsets
    of a Frobenius orbit."""
    for d in degrees:
        F, roots = place_model(field, d)
        keys = [key for key, *_ in roots]
        assert len(roots) == irreducible_count(field.q, d)
        assert keys == sorted(set(keys))
        for key, pi, theta, _ in roots:
            v = Place("finite", Poly(field, pi), d)
            assert v.sort_key() == key
            assert v.degree == v.poly.degree == d and poly_is_irreducible(v.poly)
            pi = v.poly if d == 1 else Poly(F, [(c,) + F.zero[1:] for c in v.poly.coeffs])
            assert pi.eval(theta) == F.zero

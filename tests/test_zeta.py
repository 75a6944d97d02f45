import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsurf import ffield, oracle, zeta
from ellsurf.cli import main
from ellsurf.errors import (
    InconsistentCounts,
    InternalInconsistency,
    NonPolynomial,
    NonPolynomialTail,
    PlaceBudgetExceeded,
)
from ellsurf.exactalg import QQ, leading_term, power_sums
from ellsurf.ffield import (
    ExtensionField,
    Place,
    Poly,
    PrimeField,
    factorize,
    field_make,
    find_irreducible,
    place_infinity,
    poly_is_irreducible,
)
from ellsurf.oracle import affine_point_counter
from ellsurf.tatefiber import (
    factorization,
    fiber_point_count,
    global_invariants,
    short_discriminant,
    tate_local,
)
from ellsurf.verify import FAIL, PASS, Limits, check_q2_closed_form
from ellsurf.zeta import (
    _char_sums,
    bad_correction,
    l_function,
    lefschetz_counts,
    p2_from_counts,
    p2_from_product,
    surface_counts,
)
from fiber_cases import F5, GENERIC_I1, LEGENDRE, X3T, model, synthetic_fiber

F7 = PrimeField(7)
SURPLUS = Limits().surplus_margin  # full expansion of L to deg_l + SURPLUS
F25 = field_make(5, [2, 0, 1])
GENERIC_I1_F25 = model(F25, [0, 1], [0, 1])

P2_X3T = Poly(QQ, [math.comb(10, j) * (-5) ** j for j in range(11)])  # (1-5t)^10


def pipeline(m):
    inv, fibers = global_invariants(m)
    return inv, fibers


def traces(m, d):
    """{Place.sort_key(): a_v} at every good finite place of degree d, from
    the kernel's ``good_traces(d)``."""
    t, a_v = _char_sums(m).good_traces(d)
    return dict(zip(zeta.place_keys(m, d, t), a_v.tolist()))


def finite_places(field, d_max):
    """Every finite place of degree <= d_max in sort order, from the
    pure-Python root lists of ``oracle.place_model``."""
    places = []
    for d in range(1, d_max + 1):
        places += [Place("finite", Poly(field, pi), d)
                   for _, pi, *_ in oracle.place_model(field, d)[1]]
    return places


def naive_surface_count_n1(m, fibers):
    """Independent oracle: triple loop over the affine chart plus the
    fiberwise corrections at bad places and infinity."""
    q = m.field.q
    field = m.field
    a4s, a6s = m.a4_short, m.a6_short
    bad_at = {}
    for f in fibers:
        if f.place.is_infinity:
            bad_at["inf"] = f
        elif f.place.degree == 1:
            bad_at[field.raw_neg(f.place.poly.coeffs[0])] = f
    total = 0
    for t0 in range(q):
        if t0 in bad_at:
            total += fiber_point_count(bad_at[t0], 1)
            continue
        a, b = a4s.eval(t0), a6s.eval(t0)
        cnt = 1
        for x in range(q):
            rhs = (x * x * x + a * x + b) % q
            for y in range(q):
                if y * y % q == rhs:
                    cnt += 1
        total += cnt
    if "inf" in bad_at:
        total += fiber_point_count(bad_at["inf"], 1)
    else:
        fd = tate_local(m, place_infinity())
        total += fiber_point_count(fd, 1)
    return total


def test_x3t_counts_76_and_876():
    inv, fibers = pipeline(X3T)
    counts = surface_counts(X3T, fibers, 2)
    assert counts == (76, 876)
    assert naive_surface_count_n1(X3T, fibers) == 76
    # Lefschetz expansion of (1-5t)^10 gives the same numbers
    assert lefschetz_counts(P2_X3T, 5, 2) == [76, 876]


def test_x3t_f7_count_n1():
    m7 = model(F7, 0, [0, 1])
    inv, fibers = pipeline(m7)
    counts = surface_counts(m7, fibers, 1)
    # 1 + q^2 + 10 q for the all-roots-at-q polynomial
    assert counts[0] == 1 + 49 + 70 == 120
    assert naive_surface_count_n1(m7, fibers) == 120


def test_counts_zero_nmax_empty():
    inv, fibers = pipeline(X3T)
    assert surface_counts(X3T, fibers, 0) == ()


def oracle_counts(m, fibers, n_max):
    """Independent oracle for the character-sum kernel.  GF(q^n) is the
    pure-Python GF(p)[x]/(f) with GF(q) embedded by a root of its modulus;
    one affine_point_counter per GF(q^n) runs at one t per Frobenius orbit
    (t -> t^q) with Delta(t) != 0, weighted by the orbit length, and the bad
    places and infinity add their fiber counts (minimal models only)."""
    field, q = m.field, m.field.q
    fp = field if field.degree == 1 else field.base
    inf = next(f for f in fibers if f.place.is_infinity)
    out = []
    for n in range(1, n_max + 1):
        deg = field.degree * n
        big = fp if deg == 1 else ExtensionField(fp, find_irreducible(fp, deg).coeffs, False)
        add, mul, zero = big.raw_add, big.raw_mul, big.zero
        if field.degree == 1:
            embed = big.raw
        else:
            modulus = Poly(big, field.modulus)
            r = next(x for x in big.raw_values() if modulus.eval(x) == zero)
            embed = lambda c: Poly(big, c).eval(r)  # sum of c_i r^i

        short = (m.a4_short, m.a6_short, short_discriminant(m.a4_short, m.a6_short))
        a4, a6, delta = ([embed(c) for c in f.coeffs] for f in short)
        count = affine_point_counter(big)

        def ev(coeffs, t):
            acc = zero
            for c in reversed(coeffs):
                acc = add(mul(acc, t), c)
            return acc

        total, seen = 0, set()
        for t in big.raw_values():
            if big.raw_key(t) in seen:
                continue
            orbit = [t]
            while big.raw_pow(orbit[-1], q) != t:
                orbit.append(big.raw_pow(orbit[-1], q))
            seen.update(big.raw_key(s) for s in orbit)
            if ev(delta, t) != zero:
                total += len(orbit) * (1 + count(ev(a4, t), ev(a6, t)))
        for f in fibers:
            if not f.place.is_infinity and n % f.d_v == 0:
                total += f.d_v * fiber_point_count(f, n // f.d_v)
        out.append(total + fiber_point_count(inf, n))
    return tuple(out)


def test_counts_match_pure_python_oracle():
    for m in (LEGENDRE, GENERIC_I1_F25):
        inv, fibers = pipeline(m)
        assert surface_counts(m, fibers, 2) == oracle_counts(m, fibers, 2)


def test_good_traces_match_tate_local():
    """Every good a_v of the kernel against Tate's algorithm (pure-Python
    point count in the residue field): x3t over F5 at degree <= 3, and the
    generic I1 model over F25 at degree 1 plus a few degree-2 places."""
    f25_deg2 = [v for v in finite_places(F25, 2) if v.degree == 2][::60]
    for m, places, n_good in (
        (X3T, finite_places(F5, 3), 54),
        (GENERIC_I1_F25, finite_places(F25, 1) + f25_deg2, 28),
    ):
        checked = 0
        for v in places:
            fd = tate_local(m, v)
            if fd.is_good:
                assert traces(m, v.degree)[v.sort_key()] == fd.a_v
                checked += 1
        assert checked == n_good


DEG23 = model(F5, [1, 0, 1], [0, 3, 2, 1])  # bad places of degree 1, 2 and 3


def pure_model(cf):
    """The pure-Python field the coded field cf encodes: GF(p) modulo
    cf.modulus + x^n, its raw values the base-p digit tuples of the codes,
    low digit first."""
    base = PrimeField(cf.p, _allow_small=True)
    return ExtensionField(base, (*cf.modulus, 1), check_irreducible=True)


def x_of(F):
    """The raw value of x in F = GF(p)[x]/(f): (0, 1, 0, ...), or -f_0
    when f has degree 1."""
    r = (Poly(F.base, [0, 1]) % Poly(F.base, F.modulus)).coeffs
    return r + F.zero[len(r):]


def as_raw(cf, code):
    return tuple(int(code) // cf.p**i % cf.p for i in range(cf.n))


@pytest.mark.parametrize("m", [X3T, GENERIC_I1, GENERIC_I1_F25, DEG23],
                         ids=["X3T", "I1", "I1_F25", "deg23"])
def test_good_mask_is_delta_nonzero(m):
    """The kernel's good mask, taken from A and B alone, is Delta_min(t)
    != 0 (Delta_min the discriminant of minimal_short) at every orbit
    representative t of levels 1-3, Delta read by
    Poly.eval in the pure-Python model of the level's field; so each level
    holds one bad representative of full length per bad place of its
    degree."""
    kernel = _char_sums(m)
    delta_min = short_discriminant(*m.minimal_short)
    places = [pi for pi, _ in factorization(delta_min)]
    for n in (1, 2, 3):
        lv = kernel.level(n)
        F = pure_model(lv.cf)
        delta = [as_raw(lv.cf, lv.emb[kernel.base_code(c)]) for c in delta_min.coeffs]
        expected = [Poly(F, delta).eval(as_raw(lv.cf, t)) != F.zero for t in lv.t.tolist()]
        assert lv.good.tolist() == expected, n
        bad = int((~lv.good & (lv.lengths == n)).sum())
        assert bad == sum(pi.degree == n for pi in places), n


def test_eval_poly_matches_poly_eval():
    """eval_poly against Poly.eval at every point of GF(5^3) with GF(5)
    coefficients, and of GF(5^4) with GF(25) coefficients embedded by the
    kernel, among them constants with several nonzero base-5 digits, digit
    0 included; also the zero and a constant polynomial."""
    rng = random.Random(19)

    def check(cf, coeffs):
        f = Poly(pure_model(cf), [as_raw(cf, c) for c in coeffs])
        got = cf.eval_poly(coeffs, np.arange(cf.N, dtype=np.int64)).tolist()
        assert [as_raw(cf, c) for c in got] == [f.eval(as_raw(cf, t)) for t in range(cf.N)], coeffs

    for k in (0, 1, 4, 7):
        check(zeta.coded_field(5, 3), [rng.randrange(5) for _ in range(k)])
    # the kernel's embedding of GF(25) finds a root by eval_poly too
    lv = _char_sums(GENERIC_I1_F25).level(2)
    emb = lv.emb.tolist()
    several = [c for c in emb if c % 5 and sum(map(bool, as_raw(lv.cf, c))) > 1]
    assert len(several) > 1
    for coeffs in [[rng.choice(emb) for _ in range(k)] for k in (1, 5, 9)] + [several]:
        check(lv.cf, coeffs)


def _fiber_sums(cf, A, B):
    """Direct oracle for the transform kernel at small N: S = sum over x in
    the field of chi(x^3 + A x + B) for each entry of the code arrays A and
    B, in blocks of zeta._BLOCK (t, x) pairs."""
    x = np.arange(cf.N, dtype=np.int64)
    x3 = cf.mul(cf.mul(x, x), x)
    rows = max(1, zeta._BLOCK // cf.N)
    out = np.empty(len(A), dtype=np.int64)
    for s in range(0, len(A), rows):
        u = cf.add(cf.add(x3, cf.mul(A[s : s + rows, None], x)), B[s : s + rows, None])
        out[s : s + rows] = cf.chi[u].sum(axis=1)
    return out


def random_codes(cf, size, seed):
    """Random (A, B) code arrays with A = 0 and B = 0 both present."""
    rng = np.random.default_rng(seed)
    A, B = rng.integers(0, cf.N, size), rng.integers(0, cf.N, size)
    A[: size // 4] = 0
    B[size // 8 : size // 2] = 0
    return A, B


@pytest.mark.parametrize(
    "p, n",
    # gcd(4, N - 1) = 4 and 3 | N - 1: 25, 625, 49, 2401, 121, 13; 4 and 3
    # does not divide N - 1: 5, 125, 101; 2 and 3 | N - 1: 7, 343; 2 and 3
    # does not: 131.  GF(25) and GF(625) are levels 1 and 2 over the base
    # GF(25); 101 and 131 are single-digit levels, 131 with the transform
    # matrix split into blocks.  Where 3 | N - 1 the A = 0 entries read the
    # three cube-class sums, GF(7^1..4), GF(13), GF(5^2) and GF(5^4) among them
    [(5, 1), (5, 2), (5, 3), (5, 4), (7, 1), (7, 2), (7, 3), (7, 4), (11, 2), (13, 1),
     (101, 1), (131, 1)],
)
def test_transform_matches_direct_kernel(p, n):
    cf = zeta._CodedField(p, n)  # fresh: no tables from other tests
    A, B = random_codes(cf, min(400, 4 * cf.N), seed=p * 10 + n)
    assert np.array_equal(zeta._transform_sums(cf, A, B), _fiber_sums(cf, A, B))


def test_reports_build_at_most_two_transform_tables_per_field(monkeypatch, capsys):
    """S(A, B) = chi(l) S(l^-2 A, l^-3 B) leaves two tables for A != 0,
    a0 in {1, gen}, and none for A = 0: the report of y^2 = x^3 + t over
    GF(7) (A = 0 at every t) builds no transform table at any level, and
    that of generic_i1_f5 at most two on each GF(5^n).  The cached orbit
    arrays the levels share are read-only."""
    for name, most in (("x3_plus_t_f7", 0), ("generic_i1_f5", 2)):
        monkeypatch.setattr(zeta, "_CODED_CACHE", {})
        assert main(["report", "--catalog", name]) == 0
        capsys.readouterr()
        assert zeta._CODED_CACHE
        for cf in zeta._CODED_CACHE.values():
            assert set(cf.sum_tables) <= {0, 1} and len(cf.sum_tables) <= most, (name, cf.N)
    assert not any(a.flags.writeable for orbits in zeta._ORBITS.values() for a in orbits)


def test_transform_in_small_blocks_matches_direct_kernel(monkeypatch):
    """Two transform rows per step over GF(7^3), the last block partial."""
    monkeypatch.setattr(zeta, "_BLOCK", 15)
    cf = zeta._CodedField(7, 3)
    A, B = random_codes(cf, 200, seed=3)
    assert np.array_equal(zeta._transform_sums(cf, A, B), _fiber_sums(cf, A, B))


def test_levels_match_direct_kernel():
    """S at the good orbit representatives of whole levels, for A = 0
    everywhere (x3t over F7), a prime base and the base GF(25)."""
    for m, n in ((model(F7, 0, [0, 1]), 3), (GENERIC_I1, 3), (GENERIC_I1_F25, 1), (GENERIC_I1_F25, 2)):
        kernel = _char_sums(m)
        lv = kernel.level(n)
        A, B = (lv.cf.eval_poly(lv.emb[c], lv.t[lv.good]) for c in kernel.coeffs[:2])
        assert np.array_equal(lv.S[lv.good], _fiber_sums(lv.cf, A, B))
        assert not lv.S[~lv.good].any()


def test_transform_prime_and_int64_guard():
    for p, n in ((5, 1), (7, 5), (5, 12), (7, 10), (131, 1)):
        r, powers = zeta._transform_prime(p, n)
        assert r % p == 1 and r > 2 * p**n + 1 and factorize(r) == {r: 1}
        assert p * r * r < 2**63
        w = int(powers[1])
        assert w != 1 and pow(w, p, r) == 1
        assert powers.tolist() == [pow(w, e, r) for e in range(p)]
    # one digit more, or GF(1000003) with r > 2 * 10^6, overflows int64;
    # GF(17^7) and GF(47^5) land between 2^63 and 2^64
    for p, n in ((5, 13), (7, 11), (17, 7), (47, 5), (1000003, 1)):
        with pytest.raises(PlaceBudgetExceeded, match="too large for the exact transform"):
            zeta._transform_prime(p, n)


@pytest.mark.parametrize("p, n", [(5, 1), (7, 1), (5, 2), (5, 4), (7, 4), (7, 5), (5, 6), (11, 4)])
def test_coded_tables_match_generator_walk(p, n):
    """exp, log and chi against a pure-Python walk through the powers of x
    in GF(p)[x]/(cf.modulus + x^n), and add and mul on sample pairs against
    that pure-Python field."""
    cf = zeta.coded_field(p, n)
    F = pure_model(cf)
    order = cf.N - 1

    def digits(code):
        return tuple(code // p**i % p for i in range(n))

    def encode(d):
        return sum(v * p**i for i, v in enumerate(d))

    gen = x_of(F)
    exp, cur = [], F.one
    for _ in range(order):
        exp.append(encode(cur))
        cur = F.raw_mul(cur, gen)
    assert cf.exp.tolist() == exp
    assert cf.log[exp].tolist() == list(range(order))
    chi = [0] * cf.N
    for k, code in enumerate(exp):
        chi[code] = 1 if k % 2 == 0 else -1
    assert cf.chi.tolist() == chi
    a, b = random_codes(cf, 200, seed=n)
    assert cf.add(a, b).tolist() == [encode(F.raw_add(digits(u), digits(v))) for u, v in zip(a, b)]
    assert cf.mul(a, b).tolist() == [encode(F.raw_mul(digits(u), digits(v))) for u, v in zip(a, b)]


@pytest.mark.parametrize(
    "p, n", [(5, 1), (5, 2), (5, 3), (5, 4), (7, 1), (7, 2), (7, 3), (11, 1), (11, 2), (13, 2)]
)
def test_modulus_is_least_primitive_by_brute_force(p, n):
    """cf.modulus is the first monic f of degree n in Place.sort_key order
    that is irreducible (Rabin) and in whose field x has order p^n - 1
    (raw_pow), every candidate tried, no constant term skipped."""
    base = PrimeField(p, _allow_small=True)
    order = p**n - 1
    candidates = sorted(
        (Poly(base, [*tail, 1]) for tail in itertools.product(range(p), repeat=n)),
        key=lambda f: Place("finite", f, n).sort_key(),
    )

    def primitive(f):
        if not poly_is_irreducible(f):
            return False
        F = ExtensionField(base, f.coeffs, check_irreducible=False)
        x = x_of(F)
        return F.raw_pow(x, order) == F.one and all(
            F.raw_pow(x, order // ell) != F.one for ell in factorize(order)
        )

    least = next(f for f in candidates if primitive(f))
    assert zeta._CodedField(p, n).modulus == least.coeffs[:-1]


def test_coded_field_uses_no_ffield_arithmetic(monkeypatch):
    """Coded fields build with the oracle's modulus search and extension
    arithmetic unavailable: the kernel shares neither with ffield."""

    def unavailable(*args, **kwargs):
        raise AssertionError("ffield arithmetic called")

    monkeypatch.setattr(ffield, "find_irreducible", unavailable)
    monkeypatch.setattr(oracle, "_PLACE_MODELS", {})  # the oracle's moduli are searched anew
    for name in ("raw_mul", "raw_pow", "raw_inv"):
        monkeypatch.setattr(ExtensionField, name, unavailable)
    monkeypatch.setattr(zeta, "_CODED_CACHE", {})
    for p, n in ((5, 1), (5, 3), (7, 2), (11, 2), (5, 6)):
        cf = zeta.coded_field(p, n)
        assert sorted(cf.exp.tolist()) == list(range(1, cf.N))


def test_non_primitive_modulus_is_an_internal_error(monkeypatch):
    """With the irreducible but not primitive t^2 + 2 over GF(5) (x^2 = 3
    has order 4, so x has order 8, not 24), the powers of x miss 16 nonzero
    elements and the build stops before any table is kept."""
    monkeypatch.setattr(zeta, "_primitive_modulus", lambda p, n: (2, 0))
    monkeypatch.setattr(zeta, "_CODED_CACHE", {})
    assert poly_is_irreducible(Poly(F5, [2, 0, 1]))
    with pytest.raises(InternalInconsistency, match="hit 8 of its 24 nonzero elements"):
        zeta.coded_field(5, 2)
    assert zeta._CODED_CACHE == {}


def test_p2_from_counts_x3t():
    inv, fibers = pipeline(X3T)
    counts = surface_counts(X3T, fibers, 5)
    p2 = p2_from_counts(counts, inv, 5)
    assert p2 == P2_X3T


def test_p2_from_counts_trivial_and_inconsistent():
    from ellsurf.tatefiber import SurfaceInvariants

    inv = SurfaceInvariants(e=12, chi=1, b2=0, deg_cond=4, deg_l=0, m=0, alpha=0, chi_lie=0)
    counts = tuple(1 + 5 ** (2 * n) for n in (1, 2))
    assert p2_from_counts(counts, inv, 5) == Poly(QQ, [1])
    inv10 = SurfaceInvariants(e=12, chi=1, b2=10, deg_cond=4, deg_l=0, m=8, alpha=0, chi_lie=0)
    bad = tuple(c + (1 if n == 4 else 0) for n, c in enumerate(surface_counts(X3T, pipeline(X3T)[1], 5)))
    with pytest.raises(InconsistentCounts):
        p2_from_counts(bad, inv10, 5)


def test_p2_from_counts_sign_ambiguity():
    """With b2/2 counts and a vanishing middle coefficient both self-dual
    completions fit; one more count must separate 1 - 25t^2 from 1 + 25t^2."""
    from ellsurf.errors import NoConsistentSign
    from ellsurf.tatefiber import SurfaceInvariants

    inv = SurfaceInvariants(e=12, chi=1, b2=2, deg_cond=4, deg_l=0, m=0, alpha=0, chi_lie=0)
    # counts generated from P2 = 1 - 25 t^2: s_n = 5^n + (-5)^n
    n1 = 1 + 5**2 + 0
    n2 = 1 + 5**4 + 50
    with pytest.raises(NoConsistentSign):
        p2_from_counts((n1,), inv, 5)
    assert p2_from_counts((n1, n2), inv, 5) == Poly(QQ, [1, 0, -25])


def test_l_function_x3t_trivial():
    inv, fibers = pipeline(X3T)
    assert l_function(X3T, fibers, inv, inv.deg_l + SURPLUS) == Poly(QQ, [1])


def test_l_function_legendre_trivial():
    inv, fibers = pipeline(LEGENDRE)
    assert inv.deg_l == 0
    assert l_function(LEGENDRE, fibers, inv, inv.deg_l + SURPLUS) == Poly(QQ, [1])


def test_l_function_generic_i1():
    inv, fibers = pipeline(GENERIC_I1)
    assert inv.deg_l == 1
    L = l_function(GENERIC_I1, fibers, inv, inv.deg_l + SURPLUS)
    # oracle: the t-coefficient is the sum of good degree-1 traces plus the
    # multiplicative-fiber signs; traces counted by brute force
    def trace(a, b):
        cnt = 1
        for x in range(5):
            rhs = (x**3 + a * x + b) % 5
            cnt += sum(1 for y in range(5) if (y * y - rhs) % 5 == 0)
        return 5 + 1 - cnt

    a1 = trace(1, 1) + trace(3, 3) + trace(4, 4) - 1  # nonsplit I1 at t=2
    assert a1 == -5
    assert L == Poly(QQ, [1, -5])


def test_l_function_place_order_independent():
    inv, fibers = pipeline(GENERIC_I1)
    L = l_function(GENERIC_I1, fibers, inv, inv.deg_l + SURPLUS)
    assert l_function(GENERIC_I1, fibers, inv, inv.deg_l + SURPLUS, reverse=True) == L


@pytest.mark.parametrize("factor", [[1, Fraction(1, 2), 5], [2, -5]], ids=["half", "constant2"])
def test_l_function_rejects_local_factor_outside_1_plus_tZt(factor):
    """A fiber at a degree-2 place carrying a factor outside 1 + T Z[T]
    wins over the kernel's factor there and is rejected."""
    from ellsurf.ffield import place_finite
    from ellsurf.tatefiber import make_fiber

    inv, fibers = pipeline(GENERIC_I1)
    place = place_finite(find_irreducible(F5, 2))
    corrupt = dataclasses.replace(make_fiber(place, 5, "I0", None, a_v=0), l_factor=Poly(QQ, factor))
    with pytest.raises(NonPolynomialTail):
        l_function(GENERIC_I1, fibers + [corrupt], inv, inv.deg_l + SURPLUS)


def test_euler_factors_cover_every_place_once():
    """The Euler product's places at degree <= 3 are exactly infinity and
    the places the pure-Python root lists give, with the fibers' own factors
    at the bad places."""
    inv, fibers = pipeline(X3T)
    factors, good = zeta.euler_factors(X3T, fibers, 3)
    keys = [*factors] + [k for d, (t, _) in good.items() for k in zeta.place_keys(X3T, d, t)]
    assert sorted(keys) == [(0,)] + [v.sort_key() for v in finite_places(F5, 3)]
    for f in fibers:
        assert factors[f.place.sort_key()] == (f.d_v, f.l_factor)


def divide_once(series, c, d):
    """The per-place integer recurrence: series <- series / c(t^d) in
    place, for c in 1 + T Z[T]."""
    for k in range(len(series)):
        series[k] -= sum(x * series[k - i * d] for i, x in enumerate(c) if i and i * d <= k)


@settings(max_examples=200, deadline=None, database=None)
@given(
    c=st.lists(st.integers(-30, 30), min_size=1, max_size=2).filter(lambda c: c[-1] != 0),
    d=st.integers(1, 6),
    m=st.integers(1, 50),
    series=st.lists(st.integers(-100, 100), min_size=1, max_size=13),
)
def test_power_recurrence_matches_repeated_division(c, d, m, series):
    """series / c(t^d)^m by Miller's power recurrence equals m divisions by
    the per-place recurrence, at orders below and above d."""
    c = (1, *c)
    expected = list(series)
    for _ in range(m):
        divide_once(expected, c, d)
    assert zeta._divide_power(series, c, d, m) == expected


def per_place_series(m, fibers, order):
    """The Euler product to t^order one place at a time: each fiber's own
    factor, Tate's algorithm at infinity when no fiber is there, and
    1 - a_v T + q^d T^2 at every other good finite place."""
    own = {f.place.sort_key(): f for f in fibers}
    own.setdefault((0,), m.infinity_fiber)
    factors = [(f.d_v, [int(x) for x in f.l_factor.coeffs]) for f in own.values()]
    for d in range(1, order + 1):
        q_v = m.field.q**d
        factors += [(d, [1, -a, q_v]) for key, a in traces(m, d).items() if key not in own]
    series = [1] + [0] * order
    for d, c in factors:
        if d <= order:
            divide_once(series, c, d)
    return series


def test_grouped_l_function_matches_per_place_product():
    """The grouped Euler product against the per-place one, on X3T, the
    generic I1 model over GF(5) and over GF(25), also with good fibers of a
    wrong trace injected at a degree-1 and a degree-3 place (past the
    good-place audit) and at infinity: each fiber's factor replaces the
    kernel's, and infinity's factor counts once.  The orders 3, 5 (over
    GF(5) only: GF(25^5) is too large a level here) and deg_l + surplus put
    fiber and good places on both sides of order / 2, above which factors
    are folded into one coefficient per degree."""
    from ellsurf.ffield import place_finite
    from ellsurf.tatefiber import make_fiber

    for m in (X3T, GENERIC_I1, GENERIC_I1_F25):
        inv, fibers = pipeline(m)
        q = m.field.q
        assert l_function(m, fibers, inv, inv.deg_l + SURPLUS) == Poly(QQ, 
            per_place_series(m, fibers, inv.deg_l)
        )
        injected = [make_fiber(place_infinity(), q, "I0", None, a_v=1)]
        for d in (1, 3):
            key, a_v = next(iter(traces(m, d).items()))
            pi = Poly(m.field, [c[0] if m.field.degree == 1 else list(c) for c in key[2:]])
            injected.append(make_fiber(place_finite(pi), q, "I0", None, a_v=a_v + 1))
        mutated = [f for f in fibers if not f.place.is_infinity] + injected
        orders = {3, inv.deg_l + SURPLUS} | ({5} if q == 5 else set())
        for order in sorted(orders):
            for fs in (fibers, mutated):
                for reverse in (False, True):
                    series = zeta._euler_series(m, fs, order, reverse)
                    assert series == per_place_series(m, fs, order), (order, reverse)


K3 = model(F5, 1, [0] * 7 + [1])  # y^2 = x^3 + x + t^7, b2 = 22


def test_k3_counts_to_n8_match_the_product_route():
    """The K3 counted to GF(5^8) by the transform kernel against the
    Lefschetz counts of P2 = (1 - 5t)^2 L Q, L by half expansion and the
    functional equation."""
    inv, fibers = pipeline(K3)
    assert inv.b2 == 22
    counts = surface_counts(K3, fibers, 8)
    L = l_function(K3, fibers, inv, (inv.deg_l + 1) // 2, use_functional_equation=True)
    func, _, _ = bad_correction(fibers, 5)
    assert list(counts) == lefschetz_counts(p2_from_product(L, func, inv, 5), 5, 8)


def test_bad_correction_x3t():
    inv, fibers = pipeline(X3T)
    func, lead, m = bad_correction(fibers, 5)
    assert m == 8
    assert (lead.sign, lead.value, lead.log_power, lead.order) == (1, 1, 8, 8)
    # II contributes trivially; II* gives (1-5t)^8
    assert func == Poly(QQ, [1, -5]) ** 8
    assert leading_term(func, 5) == lead


def test_bad_correction_split_i3_synthetic():
    f = synthetic_fiber(5, 1, "I3", "split")
    func, lead, m = bad_correction([f], 5)
    assert m == 2
    assert lead.value == 1 and lead.log_power == 2
    # (1-5t)^3/(1-5t) = (1-5t)^2
    assert func == Poly(QQ, [1, -5]) ** 2


def test_bad_correction_empty():
    func, lead, m = bad_correction([], 5)
    assert m == 0 and lead.value == 1 and lead.log_power == 0


def test_bad_correction_degree_two_place():
    f = synthetic_fiber(5, 2, "I3", "split")
    func, lead, m = bad_correction([f], 5)
    assert m == 2
    assert func == Poly(QQ, [1, 0, -25]) ** 2
    # closed form: d_v^(m_v-1) * prod r_i = 4
    assert lead.value == 4 and lead.log_power == 2


def test_closed_form_mismatch_on_corrupted_fiber():
    """Q* of ``bad_correction`` and the closed form of ``check_q2_closed_form``
    are two computations: a fiber whose m_v or identity orbit no longer
    matches its components makes them differ, and the check FAILs."""
    f = synthetic_fiber(5, 1, "I3", "split")
    assert check_q2_closed_form([f], bad_correction([f], 5)[1]).status == PASS
    bad = dataclasses.replace(f, m_v=4)  # m_v no longer matches components
    assert check_q2_closed_form([bad], bad_correction([bad], 5)[1]).status == FAIL
    # an identity orbit of two components: Q leaves it out, the closed form does not
    bad = dataclasses.replace(f, components=((2, 1),) + f.components[1:])
    check = check_q2_closed_form([bad], bad_correction([bad], 5)[1])
    assert (check.status, check.lhs, check.rhs) == (FAIL, "+1/1*(log q)^2", "+2/1*(log q)^2")


def test_p2_from_product_examples():
    inv, fibers = pipeline(X3T)
    func, lead, m = bad_correction(fibers, 5)
    p2 = p2_from_product(Poly(QQ, [1]), func, inv, 5)
    assert p2 == P2_X3T
    # degenerate algebra case: L = 1, Q = 1, b2 = 2
    from ellsurf.tatefiber import SurfaceInvariants

    inv2 = SurfaceInvariants(e=12, chi=1, b2=2, deg_cond=4, deg_l=0, m=0, alpha=0, chi_lie=0)
    func0, _, _ = bad_correction([], 5)
    assert p2_from_product(Poly(QQ, [1]), func0, inv2, 5) == Poly(QQ, [1, -10, 25])


def test_p2_from_product_degree_mismatch_raises():
    inv, fibers = pipeline(X3T)
    func, _, _ = bad_correction(fibers, 5)
    with pytest.raises(NonPolynomial):
        p2_from_product(Poly(QQ, [1, -5]), func, inv, 5)  # degree 11 != 10


def test_dual_route_equality_all_catalog_models():
    for m in (X3T, LEGENDRE, GENERIC_I1):
        inv, fibers = pipeline(m)
        counts = surface_counts(m, fibers, (inv.b2 + 1) // 2)
        route1 = p2_from_counts(counts, inv, m.field.q)
        L = l_function(m, fibers, inv, inv.deg_l + SURPLUS)
        func, lead, mm = bad_correction(fibers, m.field.q)
        route2 = p2_from_product(L, func, inv, m.field.q)
        assert route1 == route2


def test_p2_weight_two_selfdual_and_power_sum_bounds():
    from ellsurf.exactalg import functional_equation_complete

    for m in (X3T, LEGENDRE, GENERIC_I1):
        q = m.field.q
        inv, fibers = pipeline(m)
        L = l_function(m, fibers, inv, inv.deg_l + SURPLUS)
        func, _, _ = bad_correction(fibers, q)
        p2 = p2_from_product(L, func, inv, q)
        # inverse roots of absolute value q: self-duality plus |s_n| <= b2 q^n
        assert functional_equation_complete(p2, inv.b2, q) == p2
        for n, s in enumerate(power_sums(p2, 6), start=1):
            assert abs(s) <= inv.b2 * q**n

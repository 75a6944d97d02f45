import random

import pytest

from ellsurf import oracle, tatefiber
from ellsurf.errors import GoodFiber, UnsupportedModel
from ellsurf.exactalg import RatPoly
from ellsurf.ffield import (
    Place,
    Poly,
    PrimeField,
    field_make,
    find_irreducible,
    place_finite,
    place_infinity,
    residue_field,
)
from ellsurf.lattice import discriminant
from ellsurf.oracle import affine_point_counter
from ellsurf.tatefiber import (
    WeierstrassModel,
    arithmetic_component_discriminant,
    component_group_fixed_order,
    component_lattice,
    distinct_irreducible_factors,
    fiber_point_count,
    global_invariants,
    bad_fibers,
    make_fiber,
    short_at_infinity,
    short_discriminant,
    synthetic_fiber,
    tate_local,
)

F5 = PrimeField(5)
F7 = PrimeField(7)

T = [0, 1]  # the polynomial t


def model(field, a4, a6, a1=0, a2=0, a3=0):
    mk = lambda c: c if isinstance(c, list) else [c]
    return WeierstrassModel(field, mk(a1), mk(a2), mk(a3), mk(a4), mk(a6))


X3T_F5 = model(F5, 0, T)
LEGENDRE_F5 = WeierstrassModel(F5, [0], [-1, -1], [0], [0, 1], [0])  # y2=x(x-1)(x-t)


def place_t(field):
    return place_finite(Poly(field, [0, 1]))


def place_at(field, c):
    return place_finite(Poly(field, [-c, 1]))


# ---------------------------------------------------------------------------
# the long -> short map


def _random_long_models(field, count, seed):
    """Seeded long-form models with a1, a2, a3 nonzero, degrees <= 3."""
    rng = random.Random(seed)
    elems = list(field.raw_values())
    out = []
    while len(out) < count:
        coeffs = []
        for i in range(5):
            while True:
                c = Poly(field, [rng.choice(elems) for _ in range(rng.randrange(1, 5))])
                if i >= 3 or c:
                    break
            coeffs.append(c)
        try:
            out.append(WeierstrassModel(field, *coeffs))
        except UnsupportedModel:
            continue
    return out


@pytest.mark.parametrize("field", [F5, F7, field_make(5, [2, 0, 1])], ids=["F5", "F7", "F25"])
def test_short_pair_has_the_long_discriminant(field):
    for m in _random_long_models(field, 25, field.q):
        a1, a2, a3, a4, a6 = m.coeff_list()
        b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        # Silverman, AEC III.1
        delta = -(b2 * b2 * b8) - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        assert short_discriminant(m.a4_short, m.a6_short) == delta
        c4, c6 = -48 * m.a4_short, -864 * m.a6_short
        assert c4 ** 3 - c6 * c6 == 1728 * delta


@pytest.mark.parametrize("field", [F5, F7], ids=["F5", "F7"])
def test_short_pair_counts_like_the_long_form(field):
    p = field.p
    for m in _random_long_models(field, 25, 100 + p):
        for c in field.raw_values():
            a1, a2, a3, a4, a6 = (f.eval(c) for f in m.coeff_list())
            long_count = sum(
                1
                for x in range(p)
                for y in range(p)
                if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
            )
            assert long_count == affine_point_counter(field)(m.a4_short.eval(c), m.a6_short.eval(c))


# ---------------------------------------------------------------------------
# model at infinity


def _infinity_consistency(m):
    """The short pair at infinity and its discriminant must be the reversed
    minimal pair and its discriminant, for the least k with deg a4 <= 4k
    and deg a6 <= 6k."""
    a4, a6 = short_at_infinity(m)
    a4_min, a6_min = m.minimal_short
    k = next(k for k in range(8) if a4_min.degree <= 4 * k and a6_min.degree <= 6 * k)
    assert short_discriminant(a4, a6) == m.minimal_delta.reverse(12 * k)
    assert a4 == a4_min.reverse(4 * k)
    assert a6 == a6_min.reverse(6 * k)


def test_minimal_delta_is_the_discriminant_of_the_minimal_pair():
    """minimal_delta, derived from the Delta the model keeps, against Delta
    of minimal_short: on the non-minimal y^2 = x^3 + t^4 x + t^6 + t^7 over
    GF(5) (u = t, so Delta is divided by t^12) and on every catalog surface
    (u = 1, Delta itself)."""
    from ellsurf.catalog import CATALOG
    from ellsurf.cli import build_model, parse_config

    twin = model(F5, [0] * 4 + [1], [0] * 6 + [1, 1])
    assert twin.minimal_short == (Poly(F5, [1]), Poly(F5, [1, 1]))
    models = [twin] + [build_model(parse_config(e.config_text))[0] for e in CATALOG.values()]
    for m in models:
        assert m.minimal_delta == short_discriminant(*m.minimal_short)
    assert twin.minimal_delta != twin.delta_short


def test_model_at_infinity_x3t():
    a4, a6 = short_at_infinity(X3T_F5)
    # smallest scaling: a6 = t becomes s^6 * (1/s) = s^5
    assert list(a6.coeffs) == [0, 0, 0, 0, 0, 1]
    assert a4.is_zero()
    _infinity_consistency(X3T_F5)


def test_model_at_infinity_constant_model():
    m = model(F5, 1, 1)
    assert short_at_infinity(m) == (m.a4_short, m.a6_short)


def test_model_at_infinity_legendre_symbolic():
    _infinity_consistency(LEGENDRE_F5)
    fd = tate_local(LEGENDRE_F5, place_infinity())
    assert fd.kodaira == "I2*"


# ---------------------------------------------------------------------------
# tate_local on the catalog examples


def test_x3t_at_origin_type_ii():
    fd = tate_local(X3T_F5, place_t(F5))
    assert (fd.kodaira, fd.m_v, fd.c_v, fd.f_v, fd.e_v) == ("II", 1, 1, 2, 2)
    assert fd.l_factor == RatPoly([1])


def test_x3t_at_infinity_type_ii_star():
    fd = tate_local(X3T_F5, place_infinity())
    assert (fd.kodaira, fd.m_v, fd.c_v, fd.f_v, fd.e_v) == ("II*", 9, 1, 2, 10)
    assert all(r == 1 for r, _ in fd.components)


def test_legendre_at_origin_split_i2():
    fd = tate_local(LEGENDRE_F5, place_t(F5))
    # tangent slopes +-2 since -1 = 4 is a square mod 5
    assert (fd.kodaira, fd.splitting, fd.m_v, fd.c_v) == ("I2", "split", 2, 2)
    assert fd.l_factor == RatPoly([1, -1])
    fd1 = tate_local(LEGENDRE_F5, place_at(F5, 1))
    assert (fd1.kodaira, fd1.splitting) == ("I2", "split")


def test_legendre_infinity_far_split():
    fd = tate_local(LEGENDRE_F5, place_infinity())
    assert (fd.kodaira, fd.splitting, fd.m_v, fd.c_v, fd.e_v) == ("I2*", "split", 7, 4, 8)


def test_good_place_trace_matches_enumeration():
    fd = tate_local(X3T_F5, place_at(F5, 1))  # fiber y^2 = x^3 + 1
    assert fd.is_good
    affine = sum(
        1 for x in range(5) for y in range(5) if (y * y - x**3 - 1) % 5 == 0
    )
    assert affine + 1 == 6
    assert fd.a_v == 5 + 1 - 6 == 0
    assert fiber_point_count(fd, 1) == 6
    # L_v(1) = number of points (finite-field sanity identity)
    assert fd.l_factor.eval(1) == 6


# ---------------------------------------------------------------------------
# a Kodaira zoo over F5, each with hand-checked data


ZOO = [
    # (a4(t), a6(t), expected kodaira, splitting, m_v, c_v)
    ([0], T, "II", None, 1, 1),
    ([0, 1], [0], "III", None, 2, 2),
    ([0], [0, 0, 1], "IV", "split", 3, 3),  # a6/t^2 = 1 is a square
    ([0], [0, 0, 2], "IV", "nonsplit", 2, 1),  # 2 is not a square mod 5
    ([0, 0, -1], [0], "I0*", 3, 5, 4),  # T^3 - T splits completely
    ([0, 0, 1], [0, 0, 0, 2], "I0*", 1, 4, 2),  # T^3+T+2 = (T+1)(T^2-T+2)
    ([0, 0, 1], [0, 0, 0, 1], "I0*", 0, 3, 1),  # T^3+T+1 irreducible
    ([-3], [2, 1], "I1", "nonsplit", 1, 1),  # 3 not a square
    ([-27], [54, 1], "I1", "split", 1, 1),  # 3*3 = 9 = 4 is a square
    ([-3], [2, 0, 1], "I2", "nonsplit", 2, 2),
    ([-27], [54, 0, 1], "I2", "split", 2, 2),
    ([-3], [2, 0, 0, 1], "I3", "nonsplit", 2, 1),
    ([-27], [54, 0, 0, 1], "I3", "split", 3, 3),
    ([-27], [54, 0, 0, 0, 1], "I4", "split", 4, 4),
    ([-3], [2, 0, 0, 0, 1], "I4", "nonsplit", 3, 2),
    ([0, 0, -3], [0, 0, 0, 2, 1], "I1*", "split", 6, 4),
    ([0, 0, -3], [0, 0, 0, 2, 2], "I1*", "nonsplit", 5, 2),
    ([0, 0, -3], [0, 0, 0, 2, 0, 1], "I2*", "nonsplit", 6, 2),
    ([0], [0, 0, 0, 0, 1], "IV*", "split", 7, 3),  # a6/t^4 = 1 square
    ([0], [0, 0, 0, 0, 2], "IV*", "nonsplit", 5, 1),
    ([0, 0, 0, 1], [0], "III*", None, 8, 2),
    ([0], [0, 0, 0, 0, 0, 1], "II*", None, 9, 1),
]


@pytest.mark.parametrize("a4,a6,kod,split,m_v,c_v", ZOO)
def test_kodaira_zoo(a4, a6, kod, split, m_v, c_v):
    m = model(F5, a4, a6)
    fd = tate_local(m, place_t(F5))
    assert fd.kodaira == kod
    if split is not None:
        assert fd.splitting == split
    assert fd.m_v == m_v
    assert fd.c_v == c_v


def test_zoo_component_group_cross_validation():
    """c_v from the type table equals the Frobenius-fixed order of the
    geometric component group computed from the dual graph."""
    for a4, a6, kod, split, m_v, c_v in ZOO:
        fd = tate_local(model(F5, a4, a6), place_t(F5))
        assert component_group_fixed_order(fd) == fd.c_v, fd.kodaira


def test_minimalization_to_good_reduction():
    # y^2 = x^3 + t^6 at t = 0 minimalizes to y^2 = x^3 + 1: good
    fd = tate_local(model(F5, 0, [0] * 6 + [1]), place_t(F5))
    assert fd.is_good and fd.a_v == 0


def test_bad_fibers_skip_the_places_where_the_model_is_only_non_minimal(monkeypatch):
    """y^2 = x^3 + (t+1) pi^4 x + t^5 pi^6 for pi irreducible of degree 8
    is y^2 = x^3 + (t+1) x + t^5 scaled by pi: its bad fibers are the
    twin's, found without counting the good fiber at pi over GF(5^8)."""
    pi = find_irreducible(F5, 8)
    t, one = Poly(F5, [0, 1]), Poly(F5, [1])
    twin = model(F5, [1, 1], [0] * 5 + [1])
    twisted = WeierstrassModel(F5, [0], [0], [0], (t + one) * pi**4, t**5 * pi**6)
    counter = tatefiber.affine_point_counter

    def base_field_only(kv):
        if kv is not F5:
            raise AssertionError(f"point count over GF({kv.q})")
        return counter(kv)

    monkeypatch.setattr(tatefiber, "affine_point_counter", base_field_only)
    assert bad_fibers(twisted) == bad_fibers(twin)


def test_higher_degree_place():
    # y^2 = x^3 + (t^2+2) over F5: bad at the degree-2 place (t^2+2)
    m = model(F5, 0, [2, 0, 1])
    pi = Poly(F5, [2, 0, 1])
    fd = tate_local(m, place_finite(pi))
    assert fd.kodaira == "II" and fd.d_v == 2 and fd.q_v == 25


# ---------------------------------------------------------------------------
# component lattices


def test_component_lattice_split_i3():
    fd = synthetic_fiber(5, 1, "I3", "split")
    P = component_lattice(fd)
    assert P.group.n_gens == 2
    assert P.pairing.rows == [[-2, 1], [1, -2]]
    sv = discriminant(P)
    assert abs(sv.signed_value) == 3


def test_component_lattice_type_ii_trivial():
    fd = synthetic_fiber(5, 1, "II")
    P = component_lattice(fd)
    assert P.group.n_gens == 0
    assert discriminant(P).signed_value == 1


def test_component_lattice_ii_star_unimodular():
    fd = synthetic_fiber(5, 1, "II*")
    P = component_lattice(fd)
    assert P.group.n_gens == 8
    assert abs(discriminant(P).signed_value) == 1


def test_component_lattice_nonsplit_iv_star():
    fd = synthetic_fiber(5, 1, "IV*", "nonsplit")
    P = component_lattice(fd)
    assert P.group.n_gens == 4
    assert abs(discriminant(P).signed_value) == 4  # c_v * prod r_i = 1 * 4


def test_component_lattice_nonsplit_i4():
    fd = synthetic_fiber(5, 1, "I4", "nonsplit")
    P = component_lattice(fd)
    assert abs(discriminant(P).signed_value) == 4  # c_v=2 times prod r_i=2


def test_component_lattice_good_fiber_raises():
    fd = make_fiber(place_t(F5), 5, "I0", None, a_v=0)
    with pytest.raises(GoodFiber):
        component_lattice(fd)


def test_arithmetic_discriminant_degree_two_place():
    # split I3 at a degree-2 place: |disc| = c_v * prod r_i * d_v^(m_v-1)
    fd = synthetic_fiber(5, 2, "I3", "split")
    sv = arithmetic_component_discriminant(fd)
    assert abs(sv.signed_value) == 3 * 2**2
    assert sv.log_power == 2


# ---------------------------------------------------------------------------
# fiber point counts


def test_fiber_point_count_examples():
    assert fiber_point_count(synthetic_fiber(5, 1, "II"), 1) == 6
    assert fiber_point_count(synthetic_fiber(5, 1, "II*"), 1) == 46
    assert fiber_point_count(synthetic_fiber(5, 1, "I2", "nonsplit"), 1) == 12
    assert fiber_point_count(synthetic_fiber(5, 1, "I3", "nonsplit"), 1) == 7
    assert fiber_point_count(synthetic_fiber(5, 1, "I3", "nonsplit"), 2) == 3 * 25


def test_fiber_point_count_nodal_cubics_direct():
    """I1 fibers are the nodal Weierstrass cubics themselves; enumerate."""

    def affine(a, b, q):
        out = 0
        for x in range(q):
            rhs = (x**3 + a * x + b) % q
            out += sum(1 for y in range(q) if (y * y - rhs) % q == 0)
        return out

    # nonsplit node: y^2 = x^3 - 3x + 2 over F5 (tangents irrational)
    fd = tate_local(model(F5, -3, [2, 1]), place_t(F5))
    assert (fd.kodaira, fd.splitting) == ("I1", "nonsplit")
    assert fiber_point_count(fd, 1) == affine(-3, 2, 5) + 1 == 7
    # split node: y^2 = x^3 - 27x + 54
    fd = tate_local(model(F5, -27, [54, 1]), place_t(F5))
    assert (fd.kodaira, fd.splitting) == ("I1", "split")
    assert fiber_point_count(fd, 1) == affine(-27, 54, 5) + 1 == 5


@pytest.mark.parametrize(
    "field,count", [(F5, 30), (F7, 30), (field_make(5, [2, 0, 1]), 8)], ids=["F5", "F7", "F25"]
)
def test_split_decisions_count_the_reduced_cubic(field, count):
    """Tate's split tests at places of degree 1 and 2: at every bad finite
    place of degree <= 2 of ``count`` seeded random short models, the
    reduction of the minimal pair, a nodal or cuspidal cubic, has q_v + 1 +
    l_factor.coeff(1) points: q_v split, q_v + 2 nonsplit, q_v + 1 additive.
    Every other model takes a common factor into a4 and a6, for additive
    fibers."""
    rng = random.Random(field.q)
    elems = list(field.raw_values())
    draw = lambda lo, hi: Poly(field, [rng.choice(elems) for _ in range(rng.randrange(lo, hi))])
    seen = set()
    for i in range(count):
        a4, a6 = draw(1, 6), draw(1, 6)
        if i % 2:
            g = draw(2, 4)
            a4, a6 = a4 * g, a6 * g
        try:
            m = WeierstrassModel(field, [0], [0], [0], a4, a6)
        except UnsupportedModel:
            continue
        for pi in distinct_irreducible_factors(m.minimal_delta):
            if pi.degree > 2:
                continue
            place = place_finite(pi)
            fd = tate_local(m, place)
            kv, red = residue_field(field, place)
            points = affine_point_counter(kv)(*map(red, m.minimal_short)) + 1
            assert points == fd.q_v + 1 + fd.l_factor.coeff(1), (fd.kodaira, fd.splitting, pi)
            seen.add((pi.degree, fd.l_factor.coeff(1)))
    # split, nonsplit and additive fibers at places of both degrees
    assert {k for d, k in seen} == {-1, 0, 1} and {d for d, k in seen} == {1, 2}, seen


def test_count_affine_points_matches_naive():
    for a, b in [(1, 1), (2, 3), (0, 1)]:
        naive = sum(
            1 for x in range(7) for y in range(7) if (y * y - x**3 - a * x - b) % 7 == 0
        )
        assert affine_point_counter(F7)(a, b) == naive


# ---------------------------------------------------------------------------
# global invariants


def test_global_invariants_x3t():
    inv, fibers = global_invariants(X3T_F5)
    assert (inv.e, inv.chi, inv.b2, inv.deg_l, inv.m) == (12, 1, 10, 0, 8)
    assert (inv.alpha, inv.chi_lie) == (0, 0)
    assert [f.kodaira for f in fibers] == ["II*", "II"]  # infinity sorts first


def test_global_invariants_legendre():
    inv, fibers = global_invariants(LEGENDRE_F5)
    assert inv.e == 12 and inv.b2 == 10
    assert sorted(f.kodaira for f in fibers) == ["I2", "I2", "I2*"]
    assert inv.m == 1 + 1 + 6
    assert inv.deg_l == 0


def test_global_invariants_generic_i1():
    m = model(F5, [0, 1], [0, 1])  # y^2 = x^3 + t x + t
    inv, fibers = global_invariants(m)
    kinds = {f.place.label(): f.kodaira for f in fibers}
    assert inv.e == 12
    assert sorted(f.kodaira for f in fibers) == ["I1", "II", "III*"]
    i1 = [f for f in fibers if f.kodaira == "I1"][0]
    assert i1.splitting == "nonsplit"
    assert inv.m == 7 and inv.deg_l == 1


def test_constant_discriminant_rejected():
    with pytest.raises(UnsupportedModel):
        global_invariants(model(F5, 1, 1))


def test_euler_sum_divisible_by_twelve_across_zoo():
    for a4, a6, *_ in ZOO:
        m = model(F5, a4, a6)
        inv, fibers = global_invariants(m)
        assert inv.e % 12 == 0 and inv.e > 0


def test_distinct_factor_extraction_with_p_power_multiplicity():
    t = Poly(F5, [0, 1])
    tm1 = Poly(F5, [-1, 1])
    f = (t**10) * (tm1**2) * Poly(F5, [2])
    factors = distinct_irreducible_factors(f)
    assert sorted(x.key() for x in factors) == sorted([t.key(), tm1.key()])
    # over GF(25): h^5 g with h = t + z, z^2 = -2 outside GF(5), so h^5 =
    # t^5 + z^5 and the p-th root step takes z^5 back to z (raw_pow by q/p)
    f25 = field_make(5, [2, 0, 1])
    h, g = Poly(f25, [[0, 1], 1]), Poly(f25, [[1, 1], 0, 1])
    assert distinct_irreducible_factors(g) == [g]
    factors = distinct_irreducible_factors(h**5 * g)
    assert factors == sorted([h, g], key=lambda x: (x.degree,) + x.key())


def test_factoring_higher_degree():
    # t^14 - 2 over F5 (the K3 example discriminant core)
    f = Poly(F5, [-2] + [0] * 13 + [1])
    factors = distinct_irreducible_factors(f)
    assert sum(g.degree for g in factors) == 14
    prod = Poly(F5, [1])
    for g in factors:
        prod = prod * g
        # each factor must really divide
        assert (f % g).is_zero()
    assert prod.monic() == f.monic()  # squarefree here


F_BIG = PrimeField(1000003)


@pytest.mark.parametrize(
    "alpha,beta,roots",
    [(-7, 6, 3), (500001, 500001, 1), (1, 0, 1), (2, 0, 3)],
)
def test_i0_star_root_count_in_a_huge_residue_field(alpha, beta, roots):
    """I0* over GF(1000003): the rational roots of T^3 + alpha T + beta,
    counted without walking the field.  (T-1)(T-2)(T+3); (T-1)(T^2+T+1/2)
    with -1 a non-square; T(T^2+1); T(T^2+2) with -2 a square."""
    fd = tate_local(model(F_BIG, [0, 0, alpha], [0, 0, 0, beta]), place_t(F_BIG))
    assert (fd.kodaira, fd.splitting) == ("I0*", roots)


def test_linear_factors_over_a_huge_field():
    """Equal-degree splitting at degree 1 by Cantor-Zassenhaus, with no
    enumeration of GF(1000003)."""
    f = Poly(F_BIG, [1, 0, 1])
    for c in (1, 2, 3, 5, 7, 11):
        f = f * Poly(F_BIG, [c, 1])
    factors = distinct_irreducible_factors(f)
    assert [g.key() for g in factors] == [((c,), (1,)) for c in (1, 2, 3, 5, 7, 11)] + [((1,), (0,), (1,))]


def test_synthetic_fiber_tables_consistent():
    for kod, split in [
        ("I5", "split"),
        ("I5", "nonsplit"),
        ("I6", "nonsplit"),
        ("I7", "split"),
        ("I8", "nonsplit"),
        ("I9", "split"),
        ("I3*", "split"),
        ("I3*", "nonsplit"),
        ("I4*", "split"),
        ("I4*", "nonsplit"),
        ("III", None),
        ("III*", None),
    ]:
        fd = synthetic_fiber(5, 1, kod, split)
        assert component_group_fixed_order(fd) == fd.c_v, (kod, split)


def test_count_affine_points_nested_extension_by_euler_criterion():
    from ellsurf.ffield import ExtensionField, find_irreducible

    f25 = ExtensionField(F5, [2, 0, 1])
    f625 = ExtensionField(f25, find_irreducible(f25, 2).coeffs)
    elems = list(f625.raw_values())
    add, mul = f625.raw_add, f625.raw_mul
    for a, b in [(elems[7], elems[300]), (f625.zero, elems[624])]:
        euler = 0
        for x in elems:
            rhs = add(mul(x, add(mul(x, x), a)), b)
            euler += 1 if rhs == f625.zero else (2 if f625.is_square(rhs) else 0)
        assert affine_point_counter(f625)(a, b) == euler


def _counter_fields():
    from ellsurf.ffield import ExtensionField, find_irreducible

    f11 = PrimeField(11)
    f25 = ExtensionField(F5, [2, 0, 1])
    return {
        "F5": F5,
        "F11": f11,
        "F121/F11": ExtensionField(f11, find_irreducible(f11, 2).coeffs),
        "F625/F25": ExtensionField(f25, find_irreducible(f25, 2).coeffs),
        "F49/F7": ExtensionField(F7, find_irreducible(F7, 2).coeffs),
    }


@pytest.mark.parametrize("name", ["F5", "F11", "F121/F11", "F625/F25", "F49/F7"])
def test_affine_point_counter_matches_the_double_loop(name):
    """One counter per field against #{(x, y) : y^2 = x^3 + A x + B} by a
    double loop over kv^2, on seeded draws of (A, B) with A = 0 and B = 0
    among them."""
    kv = _counter_fields()[name]
    add, mul = kv.raw_add, kv.raw_mul
    xs = list(kv.raw_values())
    squares = [mul(y, y) for y in xs]
    count = affine_point_counter(kv)
    zero = kv.zero
    rng = random.Random(len(xs))
    draws = [(rng.choice(xs), rng.choice(xs)) for _ in range(3)]
    draws += [(zero, rng.choice(xs)), (rng.choice(xs), zero), (zero, zero)]
    for a, b in draws:
        naive = 0
        for x in xs:
            rhs = add(mul(x, add(mul(x, x), a)), b)
            naive += sum(1 for yy in squares if yy == rhs)
        assert count(a, b) == naive, (name, a, b)


@pytest.mark.parametrize("name", ["F5", "F11", "F121/F11", "F625/F25"])
def test_counter_log_tables_against_the_field_arithmetic(name):
    """exp is a bijection onto the nonzero raw values with log as its
    inverse, exp walks the powers of one generator, and the cubes and the
    root counts (at every unreduced 3p-code) agree with raw_mul."""
    import itertools

    kv = _counter_fields()[name]
    by_p, by_3p, exp, log, cubes, roots, _ = oracle._counter_tables(kv)
    m, p, key, mul = kv.q - 1, kv.p, kv.raw_key, kv.raw_mul
    code = lambda x: sum(d * w for d, w in zip(key(x), by_p))
    code_3p = lambda x: sum(d * w for d, w in zip(key(x), by_3p))
    by_code_3p = {code_3p(x): x for x in kv.raw_values()}
    powers = [by_code_3p[c] for c in exp[:m]]
    assert sorted(powers) == sorted(x for x in kv.raw_values() if x != kv.zero)
    assert exp[m:] == exp[:m] and len(log) == kv.q and log[0] is None
    g = powers[1]
    assert all(mul(x, g) == y for x, y in zip(powers, powers[1:] + powers[:1]))
    assert [log[code(x)] for x in powers] == list(range(m))
    assert [code_3p(mul(x, mul(x, x))) for x in powers] == cubes
    offsets = [p * sum(c * w for c, w in zip(cs, by_3p))
               for cs in itertools.product(range(3), repeat=len(by_p))]
    squares = [mul(y, y) for y in kv.raw_values()]
    for z in kv.raw_values():
        assert {roots[code_3p(z) + off] for off in offsets} == {squares.count(z)}, z


def test_counter_tables_refuse_a_generator_that_is_not_primitive(monkeypatch, capsys):
    """A generator of too small an order walks fewer than q - 1 codes: the
    table build raises InternalInconsistency, and ``ellsurf verify`` ends
    with exit 4 and one line."""
    from ellsurf.cli import main
    from ellsurf.errors import InternalInconsistency

    primitive = oracle._primitive_element
    square = lambda kv: kv.raw_mul(primitive(kv), primitive(kv))
    monkeypatch.setattr(oracle, "_primitive_element", square)
    monkeypatch.setattr(oracle, "_COUNTER_TABLES", {})
    with pytest.raises(InternalInconsistency, match="hit 2 of its 4 nonzero elements"):
        affine_point_counter(F5)
    assert main(["verify", "--catalog", "x3_plus_t_f5"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("internal error: InternalInconsistency: the powers of the generator")


@pytest.mark.parametrize("name", ["F5", "F11", "F25"])
@pytest.mark.parametrize("d", [1, 2])
def test_specializer_matches_poly_eval_at_every_root(name, d):
    """At every root of a place of degree 1 and 2 over GF(5), GF(11) and
    GF(25), the log-table values of seeded random a4 and a6 are their
    values by Horner in the field; a4 is read with its coefficients in the
    base field, as the audit reads it, and a6 with them embedded in F."""
    from ellsurf.ffield import ExtensionField

    base = {"F5": F5, "F11": PrimeField(11), "F25": ExtensionField(F5, [2, 0, 1])}[name]
    F, roots = oracle.place_model(base, d)
    embed = (lambda c: c) if d == 1 else (lambda c: (c,) + F.zero[1:])
    rng = random.Random(F.q)
    elems = list(base.raw_values())
    coeffs = [[rng.choice(elems) for _ in range(rng.randrange(2, 9))] for _ in range(2)]
    in_F = [Poly(F, [embed(c) for c in cs]) for cs in coeffs]
    values = oracle._specializer(F, [Poly(base, coeffs[0]), in_F[1]])
    assert len(roots) > 1
    for _, _, theta in roots:
        assert values(theta) == [list(F.raw_key(f.eval(theta))) for f in in_F], theta


def test_specializer_radix_holds_the_digit_sums_of_a_degree_40_polynomial():
    """A dense degree-40 polynomial over GF(101) read at every element of
    GF(101) and at seeded elements of GF(101^2): digit sums reach about
    41 * 100, and the reads still add up to the values by Horner."""
    from ellsurf.ffield import ExtensionField

    f101 = PrimeField(101)
    rng = random.Random(40)
    coeffs = [rng.randrange(1, 101) for _ in range(41)]
    f = Poly(f101, coeffs)
    values = oracle._specializer(f101, [f, Poly(f101, [1])])
    for theta in f101.raw_values():
        assert values(theta) == [[f.eval(theta)], [1]], theta
    big = ExtensionField(f101, find_irreducible(f101, 2).coeffs)
    f_big = Poly(big, [(c, 0) for c in coeffs])
    values = oracle._specializer(big, [f_big])
    for _ in range(200):
        theta = (rng.randrange(101), rng.randrange(101))
        assert values(theta) == [list(f_big.eval(theta))], theta


def test_point_count_oracle_loads_neither_numpy_nor_the_kernel():
    """The good-place oracle (``ellsurf.oracle``: its counters, fields and
    place lists) stays independent of the character-sum kernel and its
    numpy tables, and of the verifier and Tate's algorithm that read it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys\n"
        "import ellsurf.oracle\n"
        "print(sorted(m for m in ('numpy', 'ellsurf.zeta', 'ellsurf.verify', 'ellsurf.tatefiber')\n"
        "             if m in sys.modules))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"

"""Tate's algorithm at places of P^1 and the resulting fiber data.

Everything here assumes residue characteristic >= 5, so a Weierstrass model
is its short model y^2 = x^3 + a4 x + a6 and the reduction type is read off
the valuations of (a4, a6, Delta) of the model's one minimal pair
(``WeierstrassModel.minimal_short``, reversed at infinity), with a short
translation cascade for the starred types; v(Delta) comes from one
factorization of Delta, the rest from pi-adic digits.  Splitting questions
(split vs non-split fibers, rationality of extra components) are decided
by explicit square and root tests in the exact residue field.

The surface itself is never built as a scheme: its class in every identity
checked downstream is determined by the per-place data assembled here
(Kodaira type, component orbits, Tamagawa number, conductor exponent, local
Euler number, local L-factor).  A component lattice is the integer Gram rows
of its orbits (``component_lattice``).  The fibers at fabricated places and
the dual-graph route to c_v that the tests check against live in
``tests/fiber_cases.py``.
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass, replace
from functools import cache, cached_property

from .errors import (
    CharTooSmall,
    GoodFiber,
    EulerNotTwelveDivisible,
    InconsistentFiberData,
    InternalInconsistency,
    NotMinimalizable,
    UnsupportedModel,
)
from .exactalg import RatPoly
from .ffield import (
    Place,
    Poly,
    place_finite,
    place_infinity,
    poly_gcd,
    poly_pow_mod,
    residue_field,
)
from .lattice import discriminant
from .oracle import affine_point_counter


# ---------------------------------------------------------------------------
# Weierstrass models


class WeierstrassModel:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with a_i in GF(q)[t],
    read as its short model y^2 = x^3 + a4_short x + a6_short, where
    (a4_short, a6_short) = (-c4/48, -c6/864), and a1..a6 are kept only for
    the report echo.  Every layer reads the local data from one minimal
    pair, ``minimal_short``: Tate's algorithm at each place, the factoring
    of its Delta into the bad places, the point-count kernel and the
    good-place audit."""

    def __init__(self, field, a1, a2, a3, a4, a6):
        if field.char < 5:
            raise CharTooSmall("models need residue characteristic >= 5")
        self.field = field
        mk = lambda c: c if isinstance(c, Poly) else Poly(field, c)
        self.a1, self.a2, self.a3 = mk(a1), mk(a2), mk(a3)
        self.a4, self.a6 = mk(a4), mk(a6)
        b2 = self.a1 * self.a1 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 * self.a3 + 4 * self.a6
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
        self.a4_short = c4 * field.raw_inv(field.raw(-48))
        self.a6_short = c6 * field.raw_inv(field.raw(-864))
        self.delta_short = short_discriminant(self.a4_short, self.a6_short)
        if self.delta_short.is_zero():
            raise UnsupportedModel("discriminant vanishes identically")

    def coeff_list(self):
        return [self.a1, self.a2, self.a3, self.a4, self.a6]

    @cached_property
    def _delta_factored(self) -> tuple[Poly, dict]:
        """(u, {coefficients of pi: v_pi(Delta_min)} at the bad finite pi)
        from one factorization of Delta_short, u the largest monic with u^4 |
        a4_short, u^6 | a6_short: only pi with v_pi(Delta_short) >= 12 enter."""
        u, bad = Poly(self.field, [1]), {}
        for pi, e in factorization(self.delta_short):
            n = e // 12
            if n:
                va = _leading_digit(self.a4_short, pi, 4 * n)[0]
                n = min(va // 4, _leading_digit(self.a6_short, pi, 6 * n)[0] // 6)
                u, e = u * pi**n, e - 12 * n
            if e:
                bad[pi.coeffs] = e
        return u, bad

    @cached_property
    def minimal_short(self) -> tuple[Poly, Poly]:
        """(a4_short / u^4, a6_short / u^6), minimal at every finite place."""
        u = self._delta_factored[0]
        return self.a4_short // u**4, self.a6_short // u**6

    @cached_property
    def infinity_fiber(self) -> FiberData:
        """Tate's algorithm at the place at infinity, computed on first use."""
        return tate_local(self, place_infinity())

    def __repr__(self):
        return f"WeierstrassModel(q={self.field.q})"


def short_discriminant(a4: Poly, a6: Poly) -> Poly:
    """Delta of y^2 = x^3 + a4 x + a6: -16 (4 a4^3 + 27 a6^2)."""
    return -16 * (4 * a4 ** 3 + 27 * a6 * a6)


def short_at_infinity(model: WeierstrassModel) -> tuple[Poly, Poly]:
    """The minimal short pair in the coordinate s = 1/t, so that s = 0 is
    the place at infinity: (s^(4k) a4(1/s), s^(6k) a6(1/s)) for the least
    k >= 0 with deg a4 <= 4k and deg a6 <= 6k.  It is minimal at s = 0,
    where v(a4) = 4k - deg a4 and v(a6) = 6k - deg a6: if k > 0, k - 1
    fails one bound, so v(a4) < 4 or v(a6) < 6; if k = 0, a nonzero
    constant has valuation 0."""
    a4, a6 = model.minimal_short
    k = _infinity_weight(model)
    return a4.reverse(4 * k), a6.reverse(6 * k)


def _infinity_weight(model: WeierstrassModel) -> int:
    """The least k >= 0 with deg a4 <= 4k and deg a6 <= 6k for the minimal
    short pair: the model at infinity is weighted by s^(4k), s^(6k) and its
    discriminant by s^(12k)."""
    a4, a6 = model.minimal_short
    return max(-(-a4.degree // 4), -(-a6.degree // 6), 0)  # ceil; deg 0 = -1


# ---------------------------------------------------------------------------
# Kodaira-type tables


_NAMED = {"II", "III", "IV", "II*", "III*", "IV*"}


def parse_kodaira(kod: str):
    """("named", symbol) | ("In", n) | ("In*", n)."""
    if kod in _NAMED:
        return ("named", kod)
    if kod.startswith("I") and kod.endswith("*") and kod[1:-1].isdigit():
        return ("In*", int(kod[1:-1]))
    if kod.startswith("I") and kod[1:].isdigit():
        return ("In", int(kod[1:]))
    raise ValueError(f"unknown Kodaira symbol {kod!r}")


def kodaira_euler(kod: str) -> int:
    kind, v = parse_kodaira(kod)
    if kind == "In":
        return v
    if kind == "In*":
        return 6 + v
    return {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}[v]


def kodaira_conductor(kod: str) -> int:
    if kod == "I0":
        return 0
    return 1 if is_multiplicative(kod) else 2


def is_multiplicative(kod: str) -> bool:
    kind, v = parse_kodaira(kod)
    return kind == "In" and v >= 1


def component_graph(kod: str, splitting):
    """Geometric special fiber as (multiplicities, weighted edges, frobenius
    permutation); node 0 is the component the zero section meets.

    Edge weights are geometric intersection numbers (2 for the tangency of
    type III and the double contact of I2)."""
    kind, val = parse_kodaira(kod)
    if kod in ("I0", "I1", "II"):
        return [1], [], [0]
    if kind == "In":
        n = val
        mult = [1] * n
        if n == 2:
            edges = [(0, 1, 2)]
        else:
            edges = [(i, (i + 1) % n, 1) for i in range(n)]
        if splitting == "split":
            perm = list(range(n))
        else:
            perm = [(-i) % n for i in range(n)]
        return mult, edges, perm
    if kod == "III":
        return [1, 1], [(0, 1, 2)], [0, 1]
    if kod == "IV":
        edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
        perm = [0, 1, 2] if splitting == "split" else [0, 2, 1]
        return [1, 1, 1], edges, perm
    if kod == "I0*":
        mult = [1, 2, 1, 1, 1]
        edges = [(0, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1)]
        if splitting == 3:
            perm = [0, 1, 2, 3, 4]
        elif splitting == 1:
            perm = [0, 1, 2, 4, 3]
        else:
            perm = [0, 1, 3, 4, 2]
        return mult, edges, perm
    if kind == "In*":
        m = val
        # 0,1 near leaves; 2..2+m the chain of doubles; 3+m, 4+m far leaves
        mult = [1, 1] + [2] * (m + 1) + [1, 1]
        edges = [(0, 2, 1), (1, 2, 1)]
        edges += [(2 + i, 3 + i, 1) for i in range(m)]
        edges += [(2 + m, 3 + m, 1), (2 + m, 4 + m, 1)]
        perm = list(range(m + 5))
        if splitting != "split":
            perm[3 + m], perm[4 + m] = perm[4 + m], perm[3 + m]
        return mult, edges, perm
    if kod == "IV*":
        # 0 leaf - 1 double - 2 center(3); arms (3 double, 5 leaf), (4, 6)
        mult = [1, 2, 3, 2, 2, 1, 1]
        edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1), (3, 5, 1), (4, 6, 1)]
        perm = list(range(7))
        if splitting != "split":
            perm = [0, 1, 2, 4, 3, 6, 5]
        return mult, edges, perm
    if kod == "III*":
        # chain 0(1)-1(2)-2(3)-3(4)-4(3)-5(2)-6(1), branch 7(2) at node 3
        mult = [1, 2, 3, 4, 3, 2, 1, 2]
        edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (3, 7, 1)]
        return mult, edges, list(range(8))
    if kod == "II*":
        # chain 0(1)-1(2)-2(3)-3(4)-4(5)-5(6)-6(4)-7(2), branch 8(3) at node 5
        mult = [1, 2, 3, 4, 5, 6, 4, 2, 3]
        edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1), (5, 8, 1)]
        return mult, edges, list(range(9))
    raise ValueError(f"unknown Kodaira symbol {kod!r}")


def _orbits(perm: list[int]) -> list[list[int]]:
    seen = [False] * len(perm)
    orbits = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        orb = []
        i = start
        while not seen[i]:
            seen[i] = True
            orb.append(i)
            i = perm[i]
        orbits.append(sorted(orb))
    return orbits


def component_data(kod: str, splitting):
    """(r_i, multiplicity) per residue-field component, identity first."""
    mult, _, perm = component_graph(kod, splitting)
    return tuple((len(orb), mult[orb[0]]) for orb in _orbits(perm))


def tamagawa_number(kod: str, splitting) -> int:
    kind, val = parse_kodaira(kod)
    if kod == "I0":
        return 1
    if kind == "In":  # nonsplit: the components fixed by i -> -i mod n
        return val if splitting == "split" else 2 - val % 2
    if kod in ("II", "II*"):
        return 1
    if kod in ("III", "III*"):
        return 2
    if kod in ("IV", "IV*"):
        return 3 if splitting == "split" else 1
    if kod == "I0*":
        return 1 + splitting  # 0, 1 or 3 rational P(T)-roots
    # I_m*, m >= 1: by rationality of the far leaf pair
    return 4 if splitting == "split" else 2


def geometric_gram(kod: str, splitting):
    """Gram matrix of all geometric components (diag -2, adjacency weights)
    together with multiplicities and the Frobenius permutation."""
    mult, edges, perm = component_graph(kod, splitting)
    g = len(mult)
    M = [[-2 if i == j else 0 for j in range(g)] for i in range(g)]
    for a, b, w in edges:
        M[a][b] += w
        M[b][a] += w
    return M, mult, perm


# ---------------------------------------------------------------------------
# fiber data


@dataclass(frozen=True)
class FiberData:
    place: Place
    kodaira: str
    splitting: object  # see component_graph
    m_v: int
    components: tuple  # ((r_i, multiplicity), ...), identity orbit first
    c_v: int
    f_v: int
    e_v: int
    a_v: int | None
    l_factor: RatPoly  # in the local variable T = q_v^(-s)
    d_v: int
    q_v: int

    @property
    def is_good(self) -> bool:
        return self.kodaira == "I0"

    def r_product(self) -> int:
        return math.prod(r for r, _ in self.components)


@cache
def _type_tables(kod: str, splitting) -> tuple:
    """(components, c_v, f_v, e_v) of a Kodaira type and its splitting."""
    return (component_data(kod, splitting), tamagawa_number(kod, splitting),
            kodaira_conductor(kod), kodaira_euler(kod))


def make_fiber(place: Place, q: int, kod: str, splitting, a_v: int | None = None) -> FiberData:
    """Assemble FiberData from the type tables: every fiber Tate's algorithm
    finds, and the tests' fibers at fabricated places (``tests/fiber_cases.py``)."""
    q_v = q**place.degree
    comps, c_v, f_v, e_v = _type_tables(kod, splitting)
    if kod == "I0":
        if a_v is None:
            raise ValueError("good fibers need a Frobenius trace")
        l_factor = RatPoly([1, -a_v, q_v])
    elif is_multiplicative(kod):
        l_factor = RatPoly([1, -1]) if splitting == "split" else RatPoly([1, 1])
    else:
        l_factor = RatPoly([1])
    return FiberData(
        place=place,
        kodaira=kod,
        splitting=splitting,
        m_v=len(comps),
        components=comps,
        c_v=c_v,
        f_v=f_v,
        e_v=e_v,
        a_v=a_v,
        l_factor=l_factor,
        d_v=place.degree,
        q_v=q_v,
    )


# ---------------------------------------------------------------------------
# the local algorithm


def _leading_digit(f: Poly, pi: Poly, cap: int) -> tuple[int, tuple]:
    """(v, d): v = min(v_pi(f), cap), d the coefficients of the pi-adic
    digit d_v of f = sum d_i pi^i (deg d_i < deg pi), () if v = cap; by
    division by pi, and for pi = t the d_i are f's coefficients."""
    zero = f.field.zero
    if pi.coeffs == (zero, f.field.one):
        cs = f.coeffs[:cap]
        v = next((i for i, c in enumerate(cs) if c != zero), cap)
        return v, cs[v : v + 1]
    for v in range(cap):
        f, r = f.divmod(pi)
        if r:
            return v, r.coeffs
    return cap, ()


def _translate_x(A2: Poly, A4: Poly, A6: Poly, s: Poly):
    """Coefficients after x -> x + s."""
    A2n = A2 + 3 * s
    A4n = A4 + 2 * A2 * s + 3 * s * s
    A6n = A6 + A4 * s + A2 * s * s + s * s * s
    return A2n, A4n, A6n


def tate_local(model: WeierstrassModel, place: Place) -> FiberData:
    """Kodaira type and local data of the minimal regular model at a place."""
    field = model.field
    u, bad = model._delta_factored
    if place.is_infinity:
        s = Poly(field, [0, 1])
        # Delta of the pair at infinity is s^(12k) Delta_min(1/s)
        vD = 12 * _infinity_weight(model) - (model.delta_short.degree - 12 * u.degree)
        fd = _tate_at_prime(field, *short_at_infinity(model), vD, s, place_finite(s))
        return replace(fd, place=place)
    return _tate_at_prime(field, *model.minimal_short, bad.get(place.poly.coeffs, 0), place.poly, place)


def _tate_at_prime(field, a: Poly, b: Poly, vD: int, pi: Poly, place: Place) -> FiberData:
    """Tate's algorithm on y^2 = x^3 + a x + b at the prime pi, given
    vD = v_pi(Delta), for a pair minimal at pi (v(a) < 4 or v(b) < 6); any
    other reaches II* with v(Delta) >= 12 and raises InconsistentFiberData.
    v(a), v(b) (capped at 4 and 6) and the residues are pi-adic digits."""
    q = field.q
    kv, _ = residue_field(field, place)
    zero, mul, add = kv.zero, kv.raw_mul, kv.raw_add
    res = (lambda cs: cs[0] if cs else zero) if kv is field else kv.raw
    lift = lambda e: Poly(field, [e] if kv is field else e)
    va, da = _leading_digit(a, pi, 4)
    vb, db = _leading_digit(b, pi, 6)
    at = lambda v, d, i: res(d) if v == i else zero  # the digit at i <= v

    if vD == 0:
        count = affine_point_counter(kv)(at(va, da, 0), at(vb, db, 0)) + 1
        a_v = kv.q + 1 - count
        return make_fiber(place, q, "I0", None, a_v=a_v)

    if va == 0:
        # multiplicative: node at x0 = -3b/(2a) with tangent cone
        # y^2 = 3 x0 (x - x0)^2, and 3 x0 = -2ab (3/(2a))^2
        split = kv.is_square(mul(kv.raw(-2), mul(at(va, da, 0), at(vb, db, 0))))
        fd = make_fiber(place, q, f"I{vD}", "split" if split else "nonsplit")
    # additive: the singular point of y^2 = x^3 + a x + b sits at the origin
    elif vb == 1:
        fd = make_fiber(place, q, "II", None)
    elif va == 1:
        fd = make_fiber(place, q, "III", None)
    elif vb == 2:
        split = kv.is_square(res(db))
        fd = make_fiber(place, q, "IV", "split" if split else "nonsplit")
    else:
        # P(T) = T^3 + (a/pi^2) T + (b/pi^3) over the residue field
        alpha, beta = at(va, da, 2), at(vb, db, 3)
        disc = add(mul(kv.raw(-4), mul(alpha, mul(alpha, alpha))), mul(kv.raw(-27), mul(beta, beta)))
        if disc != zero:
            fd = make_fiber(place, q, "I0*", _cubic_root_count(kv, [beta, alpha, 0, 1]))
        elif alpha != zero or beta != zero:
            # the double root of P (disc = 0 and P != T^3 force alpha != 0)
            theta = mul(mul(kv.raw(-3), beta), kv.raw_inv(mul(kv.raw(2), alpha)))
            A2l, A4l, A6l = _translate_x(Poly(field, []), a, b, lift(theta) * pi)
            m, far_split = _istar_loop(kv, res, lift, pi, A2l, A4l, A6l, vD)
            fd = make_fiber(place, q, f"I{m}*", "split" if far_split else "nonsplit")
        else:
            # triple root at the origin: v(a) >= 3, v(b) >= 4, and the model
            # is minimal (v(a) < 4 or v(b) < 6), so the last case is v(b) = 5
            if vb == 4:
                split = kv.is_square(res(db))
                fd = make_fiber(place, q, "IV*", "split" if split else "nonsplit")
            elif va == 3:
                fd = make_fiber(place, q, "III*", None)
            else:
                fd = make_fiber(place, q, "II*", None)
    if fd.e_v != vD:
        raise InconsistentFiberData(
            f"Euler number {fd.e_v} of {fd.kodaira} differs from v(Delta) = {vD}"
        )
    return fd


def _cubic_root_count(kv, P) -> int:
    """Number of distinct roots in kv of a monic cubic given by its
    coefficient list: deg gcd(T^q_v - T, P)."""
    cubic = Poly(kv, P)
    t = Poly(kv, [0, 1])
    return poly_gcd(poly_pow_mod(t, kv.q, cubic) - t, cubic).degree


def _istar_loop(kv, res, lift, pi, A2, A4, A6, vD):
    """Tate's subprocedure for I_m* (m >= 1): returns (m, far pair split?).

    Entering state: v(A2) = 1, v(A4) >= 3, v(A6) >= 4.  Odd stages test a
    quadratic in y, even stages a quadratic in x, translating through double
    roots until the quadratic separates; it tests pi-adic digits."""
    mul = kv.raw_mul

    def digit(f: Poly, i: int):  # the residue of f's digit at i, for v(f) >= i
        v, d = _leading_digit(f, pi, i + 1)
        if v < i:
            raise NotMinimalizable("claimed valuation not attained")
        return res(d)

    m = 1
    while True:
        if m % 2 == 1:
            c = digit(A6, m + 3)
            if c != kv.zero:
                return m, kv.is_square(c)
        else:
            a2_1, a4_c, a6_c = digit(A2, 1), digit(A4, (m + 4) // 2), digit(A6, m + 3)
            disc = kv.raw_add(mul(a4_c, a4_c), mul(kv.raw(-4), mul(a2_1, a6_c)))
            if disc != kv.zero:
                return m, kv.is_square(disc)
            r = mul(kv.raw_neg(a4_c), kv.raw_inv(mul(kv.raw(2), a2_1)))
            A2, A4, A6 = _translate_x(A2, A4, A6, lift(r) * pi ** ((m + 2) // 2))
        m += 1
        if m > vD - 6:
            raise NotMinimalizable("starred-type loop exceeded v(Delta) - 6")


# ---------------------------------------------------------------------------
# global invariants


@dataclass(frozen=True)
class SurfaceInvariants:
    e: int
    chi: int
    b2: int
    deg_cond: int
    deg_l: int
    m: int
    alpha: int
    chi_lie: int
    # forced by the supported class (section exists, base P^1, nonisotrivial)
    dim_b: int = 0


def factorization(f: Poly) -> list[tuple[Poly, int]]:
    """(pi, multiplicity) for the monic irreducible factors of f != 0, in
    canonical order: each squarefree part split by DDF, then EDF."""
    out = [(h, e) for g, e in _squarefree_parts(f.monic()) for h in _factor_squarefree(g)]
    return sorted(out, key=lambda he: (he[0].degree,) + he[0].key())


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    """(g, e) with g squarefree and coprime, monic f the product of the g^e:
    c = gcd(f, f') holds pi^(e-1) (pi^e if p | e), each round moves the pi
    whose e is reached out of w = f / c, and the p-th power left in c
    recurses by its p-th root (Yun's chain, 1976, reads e >= p as e mod p)."""
    out = []
    c = poly_gcd(f, _derivative(f))
    w = f // c
    e = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        out.append((w // y, e))
        w, c, e = y, c // y, e + 1
    if c.degree > 0:
        out += [(g, k * f.field.char) for g, k in _squarefree_parts(_pth_root(c))]
    return out


def _derivative(f: Poly) -> Poly:
    field = f.field
    mul, raw = field.raw_mul, field.raw
    return Poly(field, [mul(raw(i), c) for i, c in enumerate(f.coeffs)][1:])


def _pth_root(f: Poly) -> Poly:
    """For f = h(t^p), return h (coefficientwise p-th roots)."""
    field, p = f.field, f.field.char
    if any(c != field.zero for i, c in enumerate(f.coeffs) if i % p):
        raise InternalInconsistency("not a p-th power polynomial")
    return Poly(field, [field.raw_pow(c, field.q // p) for c in f.coeffs[::p]])


def _factor_squarefree(f: Poly) -> list[Poly]:
    """Distinct-degree then (seeded) equal-degree splitting of a squarefree
    monic polynomial."""
    field, out, d, rest = f.field, [], 1, f
    t = xq = Poly(field, [0, 1])
    while rest.degree > 0 and d <= rest.degree:
        if 2 * d > rest.degree:
            out.append(rest.monic())
            break
        xq = poly_pow_mod(xq, field.q, rest)  # t^(q^d) mod rest
        g = poly_gcd(xq - t, rest)
        if g.degree > 0:
            out.extend(_equal_degree_split(g, d))
            rest = (rest // g).monic()
            xq = xq % rest
        d += 1
    return out


def _equal_degree_split(f: Poly, d: int) -> list[Poly]:
    """Cantor-Zassenhaus with a seed derived from the input (bit-stable);
    the factors in no particular order."""
    field = f.field
    if f.degree == d:
        return [f.monic()]
    rng = _random.Random(hash((f.key(), d)) & 0xFFFFFFFF)
    p, k = field.p, field.degree
    draw = lambda: rng.randrange(p) if k == 1 else [rng.randrange(p) for _ in range(k)]
    while True:
        u = Poly(field, [draw() for _ in range(f.degree)])
        g = poly_gcd(u, f)
        if not 0 < g.degree < f.degree:
            g = poly_gcd(poly_pow_mod(u, (field.q**d - 1) // 2, f) - 1, f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d) + _equal_degree_split((f // g).monic(), d)


def bad_fibers(model: WeierstrassModel, threads: int = 0) -> list[FiberData]:
    """Fiber data at every place of bad reduction, sorted in the canonical
    place order: Tate at each finite factor of Delta of the minimal pair,
    whose fibers are all bad, and at infinity."""
    places = [place_finite(Poly(model.field, cs)) for cs in model._delta_factored[1]]
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda v: tate_local(model, v), places))
    else:
        results = [tate_local(model, v) for v in places]
    results.append(model.infinity_fiber)
    fibers = [fd for fd in results if not fd.is_good]
    fibers.sort(key=lambda fd: fd.place.sort_key())
    return fibers


def global_invariants(model: WeierstrassModel, fibers: list[FiberData] | None = None):
    """(SurfaceInvariants, bad fibers).  Rejects fibrations without bad
    fibers (isotrivial families fall outside the supported class)."""
    if fibers is None:
        fibers = bad_fibers(model)
    if not fibers:
        raise UnsupportedModel("no bad fibers: isotrivial family")
    e = sum(f.e_v * f.d_v for f in fibers)
    if e % 12:
        raise EulerNotTwelveDivisible(f"Euler number {e} not divisible by 12")
    chi = e // 12
    deg_cond = sum(f.f_v * f.d_v for f in fibers)
    deg_l = deg_cond - 4
    if deg_l < 0:
        raise UnsupportedModel(f"conductor degree {deg_cond} below 4")
    m = sum(f.m_v - 1 for f in fibers)
    alpha = chi - 1
    inv = SurfaceInvariants(
        e=e,
        chi=chi,
        b2=e - 2,
        deg_cond=deg_cond,
        deg_l=deg_l,
        m=m,
        alpha=alpha,
        chi_lie=-alpha,
    )
    return inv, fibers


# ---------------------------------------------------------------------------
# component lattices and fiber point counts


def component_lattice(f: FiberData) -> list[list[int]]:
    """Gram rows of the non-identity component orbits under the
    residue-field intersection pairing (the fiber-cycle quotient is taken
    by dropping the identity orbit, which the cycle expresses integrally in
    the others)."""
    if f.is_good:
        raise GoodFiber("good fibers have trivial component lattice")
    M, mult, perm = geometric_gram(f.kodaira, f.splitting)
    orbits = _orbits(perm)
    if orbits[0] != [0]:
        raise InconsistentFiberData(f"{f.kodaira}: Frobenius moves the identity component")
    rest = orbits[1:]
    return [[sum(M[i][j] for i in oa for j in ob) for ob in rest] for oa in rest]


_COMPONENT_LATTICES: dict = {}  # (kodaira, splitting, d_v) -> (base Gram, discriminant)


def component_lattice_base_gram(f: FiberData) -> list[list[int]]:
    """Orbit Gram rows scaled to base-field intersection numbers (factor
    d_v).  They depend on the fiber only through its Kodaira type,
    splitting and d_v, and are built with their discriminant once per
    those per process: the rows are shared, read, not changed."""
    key = (f.kodaira, f.splitting, f.d_v)
    if key not in _COMPONENT_LATTICES:
        gram = [[f.d_v * x for x in row] for row in component_lattice(f)]
        _COMPONENT_LATTICES[key] = gram, discriminant(gram, 1)
    return _COMPONENT_LATTICES[key][0]


def arithmetic_component_discriminant(f: FiberData):
    """Discriminant of the height pairing on the component lattice, an
    element of Q * (log q)^(m_v - 1); the place degree enters through
    log q_v = d_v log q.  Kept with ``component_lattice_base_gram``."""
    component_lattice_base_gram(f)
    return _COMPONENT_LATTICES[f.kodaira, f.splitting, f.d_v][1]


def fiber_point_count(f: FiberData, m: int) -> int:
    """Points of the minimal-regular-model fiber over the degree-m extension
    of the residue field."""
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    total = 1 - int(f.l_factor.power_sums(m)[-1])
    qm = f.q_v**m
    for r, _ in f.components:
        if m % r == 0:
            total += r * qm
    return total

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellsurf.errors import InconsistentPowerSums, NoConsistentSign
from ellsurf.exactalg import (
    RatPoly,
    SpecialValue,
    functional_equation_complete,
    leading_term,
    newton_from_power_sums,
    poly_order_at,
)


def test_poly_arith_examples():
    a = RatPoly([1, -2])
    b = RatPoly([1, -3])
    prod = a * b
    assert prod == RatPoly([1, -5, 6])
    assert prod.eval(1) == 2


def test_newton_small():
    assert newton_from_power_sums([5, 13], 2) == RatPoly([1, -5, 6])
    assert newton_from_power_sums([0], 1) == RatPoly([1])


def test_newton_surplus_check():
    # inverse roots 2, 3: s_3 = 8 + 27 = 35; a wrong surplus must raise
    newton_from_power_sums([5, 13, 35], 2)
    with pytest.raises(InconsistentPowerSums):
        newton_from_power_sums([5, 13, 36], 2)


def test_newton_with_completion_recovers_binomial_power():
    # (1 - 5t)^10 has power sums 10 * 5^n; oracle for coefficients: binomials
    sums = [10 * 5**n for n in range(1, 6)]
    half = newton_from_power_sums(sums, 5)
    full = functional_equation_complete(half, 10, 5, 2)
    expected = RatPoly([math.comb(10, j) * (-5) ** j for j in range(11)])
    assert full == expected


def _companion_power_sums(coeffs, m):
    """Power sums of inverse roots of P = sum coeffs[j] t^j via traces of the
    companion matrix of the reversed (monic) polynomial."""
    n = len(coeffs) - 1
    # x^n P(1/x) = x^n + coeffs[1] x^(n-1) + ... + coeffs[n], roots = inverse
    # roots of P; its companion matrix has trace(C^k) = s_k
    comp = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        comp[i][i - 1] = Fraction(1)
    for i in range(n):
        comp[i][n - 1] = -Fraction(coeffs[n - i])
    power = [row[:] for row in comp]
    sums = []
    for _ in range(m):
        sums.append(sum(power[i][i] for i in range(n)))
        power = [
            [sum(power[i][k] * comp[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return sums


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
def test_newton_roundtrip_against_companion_oracle(tail):
    coeffs = [1] + tail
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    if n == 0:
        return
    sums = _companion_power_sums(coeffs, n + 2)
    rebuilt = newton_from_power_sums(sums, n)
    assert rebuilt == RatPoly(coeffs)


def test_functional_equation_weight1_curve():
    # y^2 = x^3 + 1 over F5 has 6 points (oracle: direct count), so a_5 = 0
    count = 1 + sum(
        1 for x in range(5) for y in range(5) if (y * y - x**3 - 1) % 5 == 0
    )
    assert count == 6
    a = 5 + 1 - count
    partial = RatPoly([1, -a])
    assert functional_equation_complete(partial, 2, 5, 1) == RatPoly([1, 0, 5])


def test_functional_equation_degree_zero_and_idempotence():
    one = RatPoly([1])
    assert functional_equation_complete(one, 0, 5, 2) == one
    full = RatPoly([math.comb(10, j) * (-5) ** j for j in range(11)])
    assert functional_equation_complete(full, 10, 5, 2) == full


def test_functional_equation_no_sign():
    # constant term 1 with a_n forced to both +q and -q cannot happen;
    # feed incompatible data: a_0 = 1, a_2 = 7 for n=2, w=2, q=5 needs a_2=+-25
    with pytest.raises(NoConsistentSign):
        functional_equation_complete(RatPoly([1, 1, 7]), 2, 5, 2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9),
    st.sampled_from([2, 3, 5]),
    st.sampled_from([1, 2]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=10),
    st.integers(0, 10),
)
def test_functional_equation_completions_are_self_dual(n, q, weight, coeffs, cut):
    """Every completion returned, for sign +1, -1 or unset, weight 1 or 2
    and random partials, satisfies a_{n-j} = eps q^(w(n-2j)/2) a_j at every
    j (a_j = 0 where w(n-2j) is odd); cutting it anywhere past the given
    half and completing again gives it back."""
    partial = RatPoly(coeffs[: n + 1])

    def self_dual(poly, eps):
        for j in range(n + 1):
            e2 = weight * (n - 2 * j)
            if e2 % 2:
                if poly.coeff(j) != 0:
                    return False
            elif poly.coeff(n - j) != eps * Fraction(q) ** (e2 // 2) * poly.coeff(j):
                return False
        return True

    found = []
    for eps in (1, -1):
        try:
            got = functional_equation_complete(partial, n, q, weight, eps)
        except NoConsistentSign:
            continue
        assert got.degree <= n and self_dual(got, eps)
        recut = RatPoly(got.coeffs[: max(cut, (n + 1) // 2 + 1)])
        assert functional_equation_complete(recut, n, q, weight, eps) == got
        found.append(got)
    if found:
        assert functional_equation_complete(partial, n, q, weight) == found[0]
    else:
        with pytest.raises(NoConsistentSign):
            functional_equation_complete(partial, n, q, weight)


def test_leading_term_examples():
    sv = leading_term(RatPoly([1, -10, 25]), 5)  # (1-5t)^2
    assert (sv.sign, sv.value, sv.log_power, sv.order) == (1, 1, 2, 2)
    f = RatPoly([1] + [0, 0] + [-125])  # 1 - 125 t^3 = 1 - q_v^r t^(r d_v)
    sv = leading_term(f, 5)
    assert (sv.value, sv.log_power, sv.order) == (3, 1, 1)
    sv = leading_term(RatPoly([1, 0, 5]), 5)
    assert (sv.signed_value, sv.log_power, sv.order) == (Fraction(6, 5), 0, 0)


@settings(max_examples=40)
@given(
    st.lists(st.integers(-3, 3), min_size=0, max_size=3),
    st.lists(st.integers(-3, 3), min_size=0, max_size=3),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_leading_term_multiplicative(t1, t2, k1, k2):
    q = 5
    f = RatPoly([1] + t1) * RatPoly([1, -q]) ** k1
    g = RatPoly([1] + t2) * RatPoly([1, -q]) ** k2
    lt_fg = leading_term(f * g, q)
    lt = leading_term(f, q).mul(leading_term(g, q))
    assert lt_fg == lt


def test_sv_algebra_examples():
    a = SpecialValue(1, 1, 8, 8, 8)
    b = SpecialValue(1, 1, 2, 2, 2)
    assert a.mul(b) == SpecialValue(1, 1, 16, 10, 10)
    assert SpecialValue(-1, 1, 10, 10, 10) != SpecialValue(1, 1, 10, 10, 10)


def test_floats_are_refused_and_integral_coefficients_are_ints():
    """A float is never an exact coefficient (Fraction(0.5) would take it);
    integral values, Fractions included, come out as ints."""
    for bad in ([1, 0.5], [Fraction(1, 2), 2.0], [np.float64(1.0)]):
        with pytest.raises(TypeError):
            RatPoly(bad)
    with pytest.raises(TypeError):
        newton_from_power_sums([0.5], 1)
    with pytest.raises(TypeError):
        RatPoly([1, 1]).eval(0.5)
    f = RatPoly([Fraction(4, 2), np.int64(3), Fraction(1, 3)])
    assert [type(c) for c in f.coeffs] == [int, int, Fraction]
    prod = f * RatPoly([0, 3])
    assert prod.coeffs == (0, 6, 9, 1) and prod.is_integral()
    assert all(type(c) is int for c in prod.coeffs)
    assert newton_from_power_sums([5, 13], 2).coeffs == (1, -5, 6)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 25]),
    st.integers(0, 4),
    st.lists(st.integers(-30, 30), min_size=1, max_size=8),
)
def test_order_at_one_over_q_divides_out_each_factor(q, k, coeffs):
    """(1 - qT)^k g with g integral and g(1/q) != 0 has order k at 1/q and
    cofactor g, on ints.  The same polynomial halved, with Fraction
    coefficients, gives the same order and half the value."""
    g = RatPoly(coeffs)
    value = g.eval(Fraction(1, q)) if g else 0
    assume(value != 0)
    lin = RatPoly([1, -q])
    f = lin**k * g
    order, cofactor = poly_order_at(f, q)
    assert (order, cofactor) == (k, g)
    assert all(type(c) is int for c in cofactor.coeffs)

    half = f * RatPoly([Fraction(1, 2)])
    assume(not half.is_integral())
    order, cofactor = poly_order_at(half, q)
    assert (order, cofactor) == (k, g * RatPoly([Fraction(1, 2)]))
    assert leading_term(half, q).signed_value == value / 2

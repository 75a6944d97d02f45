import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from ellsurf import lattice
from ellsurf.errors import DegeneratePairing, NontrivialMW, NotIsotropic
from ellsurf.lattice import ns_lattice_build, symmetric_elimination
from lattice_cases import random_unimodular
from lattice_lemmas import (
    FgGroup,
    GroupComplex,
    Mat,
    PairedGroup,
    discriminant,
    free_paired,
    kernel_basis,
    mat_det,
    mat_inverse,
    mixed_discriminant,
    orthogonal_split_check,
    preimage_kernel,
    snf,
    subgroup_quotient,
    two_term,
    yun_split,
    z_invariant,
    z_triangle_check,
)

# ---------------------------------------------------------------------------
# oracles


def fraction_gauss(rows):
    """(det, inverse rows or None) of a square rational matrix by plain
    Fraction Gauss-Jordan elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det, [r[n:] for r in a]


def cokernel_order_by_enumeration(A):
    """|Z^n / im(A)| for nonsingular A, by enumerating cosets.

    v and w share a coset when A^(-1) (v - w) is integral, that is when
    adj(A) v = adj(A) w mod |det A|, adj(A) = det(A) A^(-1) read off the
    Fraction Gauss-Jordan oracle: a key that is SNF-free and hence
    independent of the code under test.
    """
    n = A.m
    det, ainv = fraction_gauss(A.rows)
    assert det != 0
    d = abs(int(det))
    adj = [[int(det * x) for x in row] for row in ainv]
    keys = set()
    for v in itertools.product(range(d), repeat=n):
        keys.add(tuple(sum(a * x for a, x in zip(row, v)) % d for row in adj))
    return len(keys)


def gcd_list(xs):
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g


def determinantal_divisors(M):
    """d_1, d_1*d_2, ... as gcds of k x k minors (brute force)."""
    out = []
    for k in range(1, min(M.m, M.n) + 1):
        minors = []
        for rows in itertools.combinations(range(M.m), k):
            for cols in itertools.combinations(range(M.n), k):
                sub = Mat([[M.rows[i][j] for j in cols] for i in rows], k)
                minors.append(mat_det(sub))
        out.append(gcd_list(minors))
    return out


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_examples():
    D, U, V = snf(Mat([[2, 0], [0, 3]]))
    assert [D.rows[0][0], D.rows[1][1]] == [1, 6]
    I3 = Mat.identity(3)
    D, _, _ = snf(I3)
    assert D == I3
    Z = Mat.zero(2, 3)
    D, _, _ = snf(Z)
    assert D.is_zero()


def test_snf_randomized_against_determinantal_divisors():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = Mat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)], n)
        D, U, V = snf(M)
        assert U.mul(M).mul(V) == D
        assert abs(mat_det(U)) == 1 and abs(mat_det(V)) == 1
        diag = [D.rows[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0
        # off-diagonal must vanish
        for i in range(D.m):
            for j in range(D.n):
                if i != j:
                    assert D.rows[i][j] == 0
        dd = determinantal_divisors(M)
        prod = 1
        for k, d in enumerate(diag):
            prod *= d
            assert prod == dd[k] or (prod == 0 and dd[k] == 0)


def test_det_and_inverse_match_fraction_gauss_oracle():
    """mat_det and mat_inverse on random rational matrices, and the
    determinant of the one-pass symmetric elimination on their symmetric
    parts M + M^T, a third of them with the diagonal zeroed so that no
    diagonal pivot is at hand."""
    rng = random.Random(31)
    singular = 0
    symmetric = {"singular": 0, "zero diagonal": 0, "rational": 0}
    for _ in range(400):
        n = rng.randint(1, 6)
        den = rng.choice([1, 1, 2, 6])
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]
        if den == 1:
            rows = [[int(x) for x in r] for r in rows]
        sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        if rng.random() < 0.3:
            for i in range(n):
                sym[i][i] = 0
            symmetric["zero diagonal"] += 1
        sym_det = fraction_gauss(sym)[0]
        symmetric["singular"] += sym_det == 0
        symmetric["rational"] += den > 1
        got_sym = symmetric_elimination(sym)[0]
        assert got_sym == sym_det
        integral = all(Fraction(x).denominator == 1 for r in sym for x in r)
        assert type(got_sym) is (int if integral else Fraction)
        M = Mat(rows, n)
        det, inv = fraction_gauss(rows)
        got = mat_det(M)
        assert got == det
        if den == 1:
            assert type(got) is int
        if det == 0:
            singular += 1
            with pytest.raises(ValueError):
                mat_inverse(M)
            continue
        assert mat_inverse(M).rows == inv
    assert singular > 0
    assert min(symmetric.values()) > 10
    # unimodular integer matrices invert to integer matrices
    for _ in range(50):
        U = random_unimodular(rng, rng.randint(1, 6))
        Uinv = mat_inverse(U)
        assert all(type(x) is int for r in Uinv.rows for x in r)
        assert U.mul(Uinv) == Mat.identity(U.m)


def test_inverse_of_singular_matrix_raises():
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[Fraction(1, 2), 1], [1, 2]]):
        with pytest.raises(ValueError):
            mat_inverse(Mat(rows, 2))


def test_signature_by_inertia_oracle():
    """M = P^T D P with P unimodular has the inertia of D.  D is block
    diagonal in signed and zero 1 x 1 blocks and hyperbolic planes
    [[0, b], [b, 0]] (zero diagonal, one positive and one negative
    eigenvalue), so singular and zero-diagonal inputs both occur.  Its
    determinant is det D = prod d * prod (-b^2), over 3^n when M is scaled
    by 1/3, and the one-pass symmetric elimination gives both."""
    rng = random.Random(43)
    zero_diagonal = 0
    for _ in range(600):
        blocks = [rng.choice("+-0h") for _ in range(rng.randint(1, 5))]
        n = sum(2 if b == "h" else 1 for b in blocks)
        D = Mat.zero(n, n)
        det = 1
        i = 0
        for b in blocks:
            if b == "h":
                D.rows[i][i + 1] = D.rows[i + 1][i] = rng.randint(1, 3)
                det *= -D.rows[i][i + 1] ** 2
                i += 2
            else:
                D.rows[i][i] = {"+": rng.randint(1, 4), "-": -rng.randint(1, 4), "0": 0}[b]
                det *= D.rows[i][i]
                i += 1
        P = random_unimodular(rng, n) if rng.random() < 0.7 else Mat.identity(n)
        M = P.transpose().mul(D).mul(P)
        if rng.random() < 0.2:
            M = Mat([[Fraction(x, 3) for x in r] for r in M.rows], n)
            det = Fraction(det, 3**n)
        zero_diagonal += all(M.rows[k][k] == 0 for k in range(n))
        h = blocks.count("h")
        expected = (blocks.count("+") + h, blocks.count("-") + h, blocks.count("0"))
        assert symmetric_elimination(M.rows) == (det, expected)
    assert zero_diagonal > 0
    assert symmetric_elimination([[0, 1], [1, 0]]) == (-1, (1, 1, 0))
    assert symmetric_elimination(Mat.zero(3, 3).rows) == (0, (0, 0, 3))


def test_kernel_and_preimage():
    M = Mat([[2, 4]])
    K = kernel_basis(M)
    assert K.n == 1 and M.mul(K).is_zero()
    # {z : 3z in span(6)} = 2Z
    P = preimage_kernel(Mat([[3]]), Mat([[6]]))
    D, _, _ = snf(P)
    assert D.rows[0][0] == 2


def test_cokernel_enumeration_oracle_matches_group_order():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        while True:
            A = Mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], n)
            d = mat_det(A)
            if d != 0 and abs(d) <= 40:
                break
        grp = FgGroup(n, A)
        assert grp.order() == cokernel_order_by_enumeration(A) == abs(d)


# ---------------------------------------------------------------------------
# discriminants


def test_discriminant_trivial_and_finite():
    triv = PairedGroup(FgGroup(0), Mat([], 0), log_grade=1)
    sv = discriminant(triv)
    assert (sv.signed_value, sv.log_power, sv.order) == (1, 0, 0)
    z2 = PairedGroup(FgGroup(1, Mat([[2]])), Mat([[0]]), log_grade=0)
    sv = discriminant(z2)
    assert sv.signed_value == Fraction(1, 4)


def test_discriminant_i3_gram():
    P = free_paired([[-2, 1], [1, -2]], log_grade=1)
    sv = discriminant(P)
    assert sv.signed_value == 3 and sv.log_power == 2


def test_discriminant_degenerate():
    with pytest.raises(DegeneratePairing):
        discriminant(free_paired([[1, 1], [1, 1]]))
    with pytest.raises(DegeneratePairing):
        lattice.discriminant([[1, 1], [1, 1]], 0)


# ---------------------------------------------------------------------------
# z-invariants


def test_z_two_term_examples():
    assert z_invariant(two_term(Mat([[3]]))) == Fraction(1, 3)
    assert z_invariant(two_term(Mat.identity(4))) == 1


def test_z_three_term_with_torsion():
    C = GroupComplex(
        [FgGroup(1), FgGroup(1), FgGroup(1, Mat([[4]]))],
        [Mat([[2]]), Mat([[0]])],
    )
    # H^0 = 0, H^1 = Z/2, H^2 = Z/4: z = 1 * (1/2) * 4 = 2
    assert z_invariant(C) == 2
    orders = [C.cohomology(i).order() for i in range(3)]
    assert orders == [1, 2, 4]


def test_z_composition_property():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)

        def nonsing():
            while True:
                A = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], n)
                if mat_det(A):
                    return A

        f, g = nonsing(), nonsing()
        zf = z_invariant(two_term(f))
        zg = z_invariant(two_term(g))
        zgf = z_invariant(two_term(g.mul(f)))
        assert zf * zg == zgf


def test_z_triangle_fixtures_and_randomized():
    """Hand fixtures; the randomized triangles are ``lattice_cases``'
    z_triangle_trial, run by acceptance criterion 5."""
    K = two_term(Mat([[2]]))
    M = two_term(Mat([[3]]))
    L = two_term(Mat([[2, 0], [0, 3]]))
    inj = [Mat([[1], [0]]), Mat([[1], [0]])]
    surj = [Mat([[0, 1]]), Mat([[0, 1]])]
    assert z_triangle_check(K, L, M, inj, surj)
    assert z_invariant(K) * z_invariant(M) == Fraction(1, 6)

    # K = 0: z(L) = z(M)
    K0 = GroupComplex([FgGroup(0), FgGroup(0)], [Mat([], 0)])
    M1 = two_term(Mat([[5]]))
    inj0 = [Mat([[]], 0), Mat([[]], 0)]
    surj0 = [Mat.identity(1), Mat.identity(1)]
    assert z_triangle_check(K0, M1, M1, inj0, surj0)


# ---------------------------------------------------------------------------
# Yun's lemma and orthogonal splitting


def _e8_gram():
    # trivalent node c with arms of lengths 1, 2, 4
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]
    G = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in edges:
        G[a][b] = G[b][a] = 1
    return G


def test_e8_is_unimodular():
    sv = discriminant(free_paired(_e8_gram()))
    assert abs(sv.signed_value) == 1


def test_yun_hyperbolic_plane_sign_fixture():
    U = free_paired([[0, 1], [1, 0]])
    gamma = Mat([[1], [0]])
    d, d0, dm, holds_abs, holds_signed = yun_split(U, gamma, gamma)
    assert d.signed_value == -1
    assert d0.signed_value == 1
    assert dm == 1
    assert holds_abs is True
    assert holds_signed is False  # -1 != 1: the sign-convention fixture


def test_yun_u_plus_e8():
    e8 = _e8_gram()
    n = 10
    G = [[0] * n for _ in range(n)]
    G[0][1] = G[1][0] = 1
    for i in range(8):
        for j in range(8):
            G[2 + i][2 + j] = e8[i][j]
    lam = free_paired(G)
    gamma = Mat.from_cols([[1] + [0] * 9], n)
    gp_cols = [[1] + [0] * 9] + [[0, 0] + [int(k == i) for k in range(8)] for i in range(8)]
    gamma_prime = Mat.from_cols(gp_cols, n)
    d, d0, dm, holds_abs, _ = yun_split(lam, gamma, gamma_prime)
    assert abs(d.signed_value) == 1
    assert abs(d0.signed_value) == 1 and dm == 1
    assert holds_abs


def test_yun_guards():
    U = free_paired([[1, 0], [0, 1]])
    with pytest.raises(NotIsotropic):
        yun_split(U, Mat([[1], [0]]), Mat([[1], [0]]))


def test_orthogonal_split_fixtures():
    N = free_paired([[2, 0], [0, 3]])
    d, ds, dq, holds = orthogonal_split_check(N, Mat([[1], [0]]))
    assert (ds.signed_value, dq.signed_value, d.signed_value) == (2, 3, 6)
    assert holds
    # torsion summand: Z x Z/2 with pairing on the free part only
    P = PairedGroup(FgGroup(2, Mat([[0], [2]])), Mat([[5, 0], [0, 0]]))
    d, ds, dq, holds = orthogonal_split_check(P, Mat([[0], [1]]))
    assert ds.signed_value == Fraction(1, 4)
    assert dq.signed_value == 5
    assert d.signed_value == Fraction(5, 4)
    assert holds


def test_snf_runs_once_per_group(monkeypatch):
    """A group's Smith data is computed once: the discriminant of a group
    with relations (free basis, then torsion order) and every invariant
    asked after it share one ``snf`` of the relations."""
    import lattice_lemmas

    calls = []

    def counting(M):
        calls.append(M)
        return snf(M)

    monkeypatch.setattr(lattice_lemmas, "snf", counting)
    P = PairedGroup(FgGroup(2, Mat([[0], [2]])), Mat([[5, 0], [0, 0]]))
    assert discriminant(P).signed_value == Fraction(5, 4)
    assert len(calls) == 1
    assert (P.group.invariants(), P.group.order(), P.group.torsion_order()) == ((1, [2]), None, 2)
    assert len(calls) == 1


def test_mixed_discriminant_scaled_pairing():
    lam = free_paired([[0, 2], [2, 0]])
    gamma = Mat([[1], [0]])
    dm = mixed_discriminant(lam, gamma, gamma)
    assert dm == 2


# ---------------------------------------------------------------------------
# Neron-Severi assembly


def test_ns_lattice_rank10_unimodular():
    # -E8: the Cartan matrix negated (diag -2, adjacency +1)
    ns = ns_lattice_build(1, [_e8_gram()], 0, 1)
    assert len(ns) == 10
    sv, signature = lattice.discriminant_and_signature(ns, 1)
    assert abs(sv.signed_value) == 1 and sv.log_power == 10
    assert signature == (1, 9, 0)


def test_ns_lattice_single_i3_block():
    ns = ns_lattice_build(1, [[[-2, 1], [1, -2]]], 0, 1)
    assert len(ns) == 4
    sv, signature = lattice.discriminant_and_signature(ns, 1)
    assert abs(sv.signed_value) == 3
    assert signature == (1, 3, 0)


def test_ns_lattice_refuses_nontrivial_mw():
    with pytest.raises(NontrivialMW):
        ns_lattice_build(1, [], 0, 4)
    with pytest.raises(NontrivialMW):
        ns_lattice_build(1, [], 1, 1)


def test_yun_torsion_quotient_bookkeeping():
    # U with gamma = 2 e1, gamma' = e1: lambda_0 = Z/2, mixed disc = 2,
    # and |disc U| = 1 = (1/4) * 2^2
    U = free_paired([[0, 1], [1, 0]])
    gamma = Mat([[2], [0]])
    gamma_prime = Mat([[1], [0]])
    d, d0, dm, holds_abs, _ = yun_split(U, gamma, gamma_prime)
    assert d0.signed_value == Fraction(1, 4)
    assert dm == 2
    assert abs(d.signed_value) == 1
    assert holds_abs
    lam0 = subgroup_quotient(U, gamma_prime, gamma)
    rank, tors = lam0.group.invariants()
    assert rank == 0 and tors == [2]

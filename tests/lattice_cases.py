"""Seeded random trials of the lattice identities, one per identity.

Acceptance criterion 5 (``tests/test_acceptance.py``) runs each 1000
times, and ``scripts/lattice_trials.py`` runs them from the command line.
Each trial draws from ``rng`` until its case is nondegenerate and asserts
the identity on it.  pytest does not collect this module (no ``test_``
prefix)."""

from fractions import Fraction

from lattice_lemmas import (
    Mat,
    discriminant,
    free_paired,
    mat_det,
    mat_inverse,
    orthogonal_split_check,
    two_term,
    yun_split,
    z_triangle_check,
)


def random_unimodular(rng, n, steps=8):
    """A product of ``steps`` random elementary column operations, then a
    swap of the first two rows half of the time, so det -1 occurs too."""
    U = Mat.identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for r in range(n):
            U.rows[r][j] += c * U.rows[r][i]
    if rng.random() < 0.5 and n > 1:
        U.rows[0], U.rows[1] = U.rows[1], U.rows[0]
    return U


def _square(rng, n, bound):
    return Mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)], n)


def _nonsingular(rng, n, bound):
    while True:
        M = _square(rng, n, bound)
        if mat_det(M):
            return M


def _symmetric(rng, n):
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            G[i][j] = G[j][i] = rng.randint(-3, 3)
    return G


def _scrambled(rng, G, *subgroups):
    """The pairing G and the column spans ``subgroups`` in the coordinates
    of a random unimodular S: S^T G S, and S^(-1) times each span."""
    S = random_unimodular(rng, len(G))
    Sinv = mat_inverse(S)
    gram = Mat(G, len(G))
    return (free_paired(S.transpose().mul(gram).mul(S).rows),) + tuple(Sinv.mul(g) for g in subgroups)


def yun_trial(rng):
    """Yun's isotropic splitting on a nondegenerate lattice H + N, H the
    plane [[0, 1], [1, c]] and N of rank 0-2, with gamma = k e_0 and gamma'
    = gamma + a finite-index sublattice of N, in scrambled coordinates.
    gamma lies in H and has rank 1, so the signed identity fails by exactly
    the sign: d_lambda = -d_lambda0 * d_mixed^2 on every case."""
    while True:
        extra = rng.randint(0, 2)
        n = 2 + extra
        G = [[0] * n for _ in range(n)]
        G[0][1] = G[1][0] = 1
        G[1][1] = rng.randint(-2, 2)
        for i, row in enumerate(_symmetric(rng, extra)):
            G[2 + i][2:] = row
        if mat_det(Mat(G, n)) == 0:
            continue
        cols = [[rng.randint(1, 3)] + [0] * (n - 1)]
        T = _square(rng, extra, 2)
        if mat_det(T) != 0:
            break
    tail = [[0, 0] + c for c in T.cols()]
    lam, gamma, gamma_prime = _scrambled(rng, G, Mat.from_cols(cols, n), Mat.from_cols(cols + tail, n))
    d, d0, dm, holds_abs, _ = yun_split(lam, gamma, gamma_prime)
    assert holds_abs, "absolute-value splitting identity failed"
    assert d.signed_value == -d0.signed_value * dm**2, "d_lambda != -d_lambda0 * d_mixed^2"


def orthogonal_trial(rng):
    """Orthogonal splitting of discriminants for a finite-index sublattice
    of the first block of a nondegenerate A + B, in scrambled coordinates."""
    while True:
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        n = a + b
        A, B = _symmetric(rng, a), _symmetric(rng, b)
        G = [A[i] + [0] * b for i in range(a)] + [[0] * a + B[i] for i in range(b)]
        if mat_det(Mat(G, n)) == 0 or mat_det(Mat(A, a)) == 0:
            continue
        T = _square(rng, a, 2)
        if mat_det(T) != 0:
            break
    P, sub = _scrambled(rng, G, Mat.from_cols([c + [0] * b for c in T.cols()], n))
    assert orthogonal_split_check(P, sub)[3], "orthogonal splitting identity failed"


def z_triangle_trial(rng):
    """z(K) z(M) = z(L) for two-term complexes K = [A], M = [B] and L the
    extension [[A, F], [0, B]] with F = A g - g B, so that inclusion and
    projection are chain maps."""
    a, b = rng.randint(1, 2), rng.randint(1, 2)
    A, B = _nonsingular(rng, a, 3), _nonsingular(rng, b, 3)
    g = Mat([[rng.randint(-2, 2) for _ in range(b)] for _ in range(a)], b)
    Ag, gB = A.mul(g), g.mul(B)
    L = Mat(
        [A.rows[i] + [x - y for x, y in zip(Ag.rows[i], gB.rows[i])] for i in range(a)]
        + [[0] * a + B.rows[i] for i in range(b)],
        a + b,
    )
    inj = Mat([[int(i == j) for j in range(a)] for i in range(a + b)], a)
    surj = Mat([[int(j == a + i) for j in range(a + b)] for i in range(b)], a + b)
    assert z_triangle_check(two_term(A), two_term(L), two_term(B), [inj, inj], [surj, surj]), (
        "z-invariant triangle multiplicativity failed"
    )


def basis_trial(rng):
    """The discriminant of a nondegenerate Gram matrix G of rank 1-4 does
    not depend on the presentation: it is that of U^T G U for unimodular U,
    and det(B^T G B) / det(B)^2 for any finite-index sublattice B."""
    while True:
        n = rng.randint(1, 4)
        gram = Mat(_symmetric(rng, n), n)
        if mat_det(gram):
            break
    sv = discriminant(free_paired(gram.rows))
    U = random_unimodular(rng, n)
    assert discriminant(free_paired(U.transpose().mul(gram).mul(U).rows)) == sv, "unimodular change"
    B = _nonsingular(rng, n, 3)
    index = mat_det(B)
    assert Fraction(mat_det(B.transpose().mul(gram).mul(B)), index * index) == sv.signed_value, "by definition"

#!/usr/bin/env python3
"""Standalone randomized trials for the lattice identities.

Usage: python scripts/lattice_trials.py [trials] [seed]

Runs the absolute-value splitting identity for isotropic subgroups, the
orthogonal splitting of discriminants, and the triangle multiplicativity of
the z-invariant, reporting how often the signed variants disagree."""

import random
import sys

from ellsurf.lattice import (
    Mat,
    free_paired,
    mat_det,
    mat_inverse,
    orthogonal_split_check,
    two_term,
    yun_split,
    z_triangle_check,
)


def random_unimodular(rng, n, steps=8):
    U = Mat.identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            for r in range(n):
                U.rows[r][j] += c * U.rows[r][i]
    return U


def main(argv):
    trials = int(argv[0]) if argv else 1000
    seed = int(argv[1]) if len(argv) > 1 else 0
    rng = random.Random(seed)

    done = sign_flips = 0
    while done < trials:
        extra = rng.randint(0, 2)
        n = 2 + extra
        G = [[0] * n for _ in range(n)]
        G[0][1] = G[1][0] = 1
        G[1][1] = rng.randint(-2, 2)
        for i in range(extra):
            for j in range(i + 1):
                G[2 + i][2 + j] = G[2 + j][2 + i] = rng.randint(-3, 3)
        if mat_det(Mat(G, n)) == 0:
            continue
        k = rng.randint(1, 3)
        cols = [[k] + [0] * (n - 1)]
        tail = []
        if extra:
            T = Mat([[rng.randint(-2, 2) for _ in range(extra)] for _ in range(extra)], extra)
            if mat_det(T) == 0:
                continue
            tail = [[0, 0] + c for c in T.cols()]
        S = random_unimodular(rng, n)
        Sinv = mat_inverse(S)
        lam = free_paired(S.transpose().mul(Mat(G, n)).mul(S).rows)
        _, _, _, holds_abs, holds_signed = yun_split(
            lam, Sinv.mul(Mat.from_cols(cols, n)), Sinv.mul(Mat.from_cols(cols + tail, n))
        )
        assert holds_abs, "absolute-value splitting identity failed"
        sign_flips += 0 if holds_signed else 1
        done += 1
    print(f"isotropic splitting: {done} trials, absolute identity always holds, "
          f"{sign_flips} signed discrepancies (indefinite cases)")

    done = 0
    while done < trials:
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        n = a + b
        G = [[0] * n for _ in range(n)]
        for i in range(a):
            for j in range(i + 1):
                G[i][j] = G[j][i] = rng.randint(-3, 3)
        for i in range(b):
            for j in range(i + 1):
                G[a + i][a + j] = G[a + j][a + i] = rng.randint(-3, 3)
        if mat_det(Mat(G, n)) == 0:
            continue
        if mat_det(Mat([row[:a] for row in G[:a]], a)) == 0:
            continue
        T = Mat([[rng.randint(-2, 2) for _ in range(a)] for _ in range(a)], a)
        if mat_det(T) == 0:
            continue
        sub = Mat.from_cols([c + [0] * b for c in T.cols()], n)
        _, _, _, holds = orthogonal_split_check(free_paired(G), sub)
        assert holds, "orthogonal splitting identity failed"
        done += 1
    print(f"orthogonal splitting: {done} trials, identity always holds")

    done = 0
    while done < trials:
        a, b = rng.randint(1, 2), rng.randint(1, 2)

        def nonsing(k):
            while True:
                M = Mat([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)], k)
                if mat_det(M):
                    return M

        A, B = nonsing(a), nonsing(b)
        g = Mat([[rng.randint(-2, 2) for _ in range(b)] for _ in range(a)], b)
        F = A.mul(g)
        gB = g.mul(B)
        F = Mat([[F.rows[i][j] - gB.rows[i][j] for j in range(b)] for i in range(a)], b)
        Lm = Mat(
            [A.rows[i] + F.rows[i] for i in range(a)]
            + [[0] * a + B.rows[i] for i in range(b)],
            a + b,
        )
        inj = Mat([[1 if i == j else 0 for j in range(a)] for i in range(a + b)], a)
        surj = Mat([[1 if j == a + i else 0 for j in range(a + b)] for i in range(b)], a + b)
        assert z_triangle_check(two_term(A), two_term(Lm), two_term(B), [inj, inj], [surj, surj])
        done += 1
    print(f"z-invariant triangles: {done} trials, multiplicativity always holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

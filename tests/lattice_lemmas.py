"""The paper's lattice lemmas, checked on random lattices by
``test_lattice.py`` and acceptance criterion 5 (``lattice_cases.py``):
presented groups with pairings, Smith normal form, discriminants,
z-invariants of complexes and the splitting identities.  No report reads
this module, and pytest does not collect it (no ``test_`` prefix).

Groups are presented as Z^n modulo the column span of an integer relations
matrix.  Discriminants follow the convention det(psi(b_i, b_j)) / (N : N')^2
for a maximal independent subset {b_i}; the index (N : N') absorbs the full
torsion order, so a finite group of order k has discriminant 1/k^2.

Exact linear algebra on Mat has two cores: ``snf`` over Z (kernels, spans,
indices, group invariants) and ``_bareiss``, the fraction-free Gauss-Jordan
elimination behind ``mat_det`` and ``mat_inverse``, built on
``ellsurf.lattice``'s step and denominator clearing.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from ellsurf.errors import (
    DegeneratePairing, IndexInfinite, InfiniteHomology, InternalInconsistency, NotExact, NotIsotropic
)
from ellsurf.exactalg import SpecialValue
from ellsurf.lattice import _bareiss_step, _cleared, symmetric_elimination


class Mat:
    """Dense integer (or Fraction) matrix; rows of equal length.

    Determinants and inverses go through the one integer elimination core
    (``mat_det``, ``mat_inverse``), which clears denominators first."""

    __slots__ = ("rows", "m", "n")

    def __init__(self, rows, ncols: int | None = None):
        self.rows = [list(r) for r in rows]
        self.m = len(self.rows)
        if self.m:
            self.n = len(self.rows[0])
            if any(len(r) != self.n for r in self.rows):
                raise ValueError("ragged matrix")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit column count")
            self.n = ncols

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, m: int, n: int) -> "Mat":
        return cls([[0] * n for _ in range(m)], n)

    def copy(self) -> "Mat":
        return Mat([r[:] for r in self.rows], self.n)

    def transpose(self) -> "Mat":
        return Mat([[self.rows[i][j] for i in range(self.m)] for j in range(self.n)], self.m)

    def mul(self, other: "Mat") -> "Mat":
        if self.n != other.m:
            raise ValueError("shape mismatch")
        out = [[0] * other.n for _ in range(self.m)]
        for i in range(self.m):
            ri = self.rows[i]
            for k in range(self.n):
                a = ri[k]
                if a:
                    rk = other.rows[k]
                    oi = out[i]
                    for j in range(other.n):
                        oi[j] += a * rk[j]
        return Mat(out, other.n)

    def mul_vec(self, v):
        return [sum(self.rows[i][j] * v[j] for j in range(self.n)) for i in range(self.m)]

    def hstack(self, other: "Mat") -> "Mat":
        if self.m != other.m:
            raise ValueError("row mismatch")
        if self.m == 0:
            return Mat([], self.n + other.n)
        return Mat([a + b for a, b in zip(self.rows, other.rows)], self.n + other.n)

    def col(self, j: int) -> list:
        return [self.rows[i][j] for i in range(self.m)]

    def cols(self) -> list[list]:
        return [self.col(j) for j in range(self.n)]

    @classmethod
    def from_cols(cls, cols, nrows: int) -> "Mat":
        if not cols:
            return Mat([[] for _ in range(nrows)] if nrows else [], 0)
        return Mat([[c[i] for c in cols] for i in range(nrows)], len(cols))

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.m == other.m
            and self.n == other.n
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Mat({self.rows!r})"


def snf(M: Mat):
    """Smith normal form: returns (D, U, V) with U M V = D, U, V unimodular,
    and diagonal entries d_1 | d_2 | ... >= 0."""
    A = M.copy()
    U = Mat.identity(A.m)
    V = Mat.identity(A.n)

    def swap_rows(i, j):
        A.rows[i], A.rows[j] = A.rows[j], A.rows[i]
        U.rows[i], U.rows[j] = U.rows[j], U.rows[i]

    def swap_cols(i, j):
        for r in A.rows:
            r[i], r[j] = r[j], r[i]
        for r in V.rows:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        A.rows[dst] = [a + c * b for a, b in zip(A.rows[dst], A.rows[src])]
        U.rows[dst] = [a + c * b for a, b in zip(U.rows[dst], U.rows[src])]

    def add_col(src, dst, c):
        for r in A.rows:
            r[dst] += c * r[src]
        for r in V.rows:
            r[dst] += c * r[src]

    def negate_row(i):
        A.rows[i] = [-x for x in A.rows[i]]
        U.rows[i] = [-x for x in U.rows[i]]

    t = 0
    while t < min(A.m, A.n):
        # pivot: smallest nonzero magnitude in the trailing block
        pivot = None
        for i in range(t, A.m):
            for j in range(t, A.n):
                x = A.rows[i][j]
                if x and (pivot is None or abs(x) < abs(A.rows[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            p = A.rows[t][t]
            dirty = False
            for i in range(t + 1, A.m):
                x = A.rows[i][t]
                if x:
                    q = x // p
                    add_row(t, i, -q)
                    if A.rows[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, A.n):
                x = A.rows[t][j]
                if x:
                    q = x // p
                    add_col(t, j, -q)
                    if A.rows[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # row and column are clear; enforce divisibility of the rest
            p = A.rows[t][t]
            offender = None
            for i in range(t + 1, A.m):
                for j in range(t + 1, A.n):
                    if A.rows[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if A.rows[t][t] < 0:
            negate_row(t)
        t += 1
    return A, U, V


def _bareiss(a: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan elimination of the integer rows a = [A | B],
    A n x n, in place; returns det A.  When det A = d != 0 the rows end as
    [d I | d A^(-1) B]."""
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            # a swap with a negation keeps the determinant
            a[k], a[piv] = [-x for x in a[piv]], a[k]
        prev = _bareiss_step(a, k, prev, [i for i in range(n) if i != k])
    return prev


def mat_det(M: Mat):
    """Determinant of a square rational matrix: an int when every entry is
    an integer, otherwise a Fraction."""
    if M.m != M.n:
        raise ValueError("square required")
    a, l = _cleared(M.rows)
    det = _bareiss(a, M.n)
    return det if l == 1 else Fraction(det, l**M.n)


def mat_inverse(M: Mat) -> Mat:
    """Inverse of a nonsingular square rational matrix: integer entries when
    det M = +-1, Fractions otherwise."""
    if M.m != M.n:
        raise ValueError("square required")
    n = M.n
    a, l = _cleared(M.rows)
    # (l M)^(-1) = M^(-1) / l, so [l M | l I] ends as [d I | d M^(-1)]
    for i, r in enumerate(a):
        r.extend(l if i == j else 0 for j in range(n))
    d = _bareiss(a, n)
    if d == 0:
        raise ValueError("matrix is singular")
    if abs(d) == 1:
        return Mat([[x * d for x in r[n:]] for r in a], n)
    return Mat([[Fraction(x, d) for x in r[n:]] for r in a], n)


def kernel_basis(M: Mat) -> Mat:
    """Columns spanning ker(M : Z^n -> Z^m); a genuine basis."""
    D, _, V = snf(M)
    r = min(D.m, D.n)
    free = [j for j in range(M.n) if j >= r or D.rows[j][j] == 0]
    return Mat.from_cols([V.col(j) for j in free], M.n)


def preimage_kernel(A: Mat, B: Mat) -> Mat:
    """Columns z spanning {z : A z in column span of B}."""
    if A.n == 0:
        return Mat([], 0)
    if B.n == 0:
        return kernel_basis(A)
    negB = Mat([[-x for x in r] for r in B.rows], B.n)
    K = kernel_basis(A.hstack(negB))
    cols = [c[: A.n] for c in K.cols()]
    return Mat.from_cols(cols, A.n)


def in_span(A: Mat, x: list) -> bool:
    """Is x in the column span of A over Z?"""
    D, U, _ = snf(A)
    w = U.mul_vec(x)
    r = min(D.m, D.n)
    for i in range(A.m):
        if i < r and D.rows[i][i]:
            if w[i] % D.rows[i][i]:
                return False
        elif w[i]:
            return False
    return True


def lattice_index(gens: Mat) -> int | None:
    """[Z^n : span(gens)]; None when the span has lower rank."""
    D, _, _ = snf(gens)
    r = min(D.m, D.n)
    diag = [D.rows[i][i] for i in range(r) if D.rows[i][i]]
    if len(diag) < gens.m:
        return None
    prod = 1
    for d in diag:
        prod *= d
    return prod


# ---------------------------------------------------------------------------
# groups


@dataclass
class FgGroup:
    """Z^n_gens modulo the column span of ``relations``."""

    n_gens: int
    relations: Mat = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.relations is None:
            self.relations = Mat([[] for _ in range(self.n_gens)] if self.n_gens else [], 0)
        if self.relations.m != self.n_gens:
            raise ValueError("relations rows must match generator count")

    @cached_property
    def smith_data(self):
        """(D, U, rank, torsion) from one ``snf`` of the relations, run on
        first use: relations are not changed after construction."""
        D, U, V = snf(self.relations)
        r = min(D.m, D.n)
        diag = [D.rows[i][i] for i in range(r)]
        nonzero = [d for d in diag if d]
        rank = self.n_gens - len(nonzero)
        torsion = [d for d in nonzero if d > 1]
        return D, U, rank, torsion

    def invariants(self):
        _, _, rank, torsion = self.smith_data
        return rank, sorted(torsion)

    def torsion_order(self) -> int:
        return math.prod(self.smith_data[3])

    def order(self) -> int | None:
        rank, torsion = self.invariants()
        return None if rank > 0 else math.prod(torsion)

    def free_basis(self) -> Mat:
        """Columns of Z^n_gens projecting to a basis of the free quotient."""
        D, U, rank, _ = self.smith_data
        Uinv = mat_inverse(U)
        r = min(D.m, D.n)
        free_idx = [i for i in range(self.n_gens) if i >= r or D.rows[i][i] == 0]
        if len(free_idx) != rank:
            raise InternalInconsistency(f"{len(free_idx)} free columns for rank {rank}")
        return Mat.from_cols([Uinv.col(i) for i in free_idx], self.n_gens)


@dataclass
class PairedGroup:
    """FgGroup with a symmetric rational pairing on its generators.

    ``log_grade`` is the (log q)-grading of a single pairing value: 1 for
    height-type pairings, 0 for plain integer intersection forms.
    """

    group: FgGroup
    pairing: Mat
    log_grade: int = 0

    def __post_init__(self):
        n = self.group.n_gens
        if self.pairing.m != n or self.pairing.n != n:
            raise ValueError("pairing must be n_gens x n_gens")
        for i in range(n):
            for j in range(i):
                if self.pairing.rows[i][j] != self.pairing.rows[j][i]:
                    raise ValueError("pairing must be symmetric")
        # relators must pair to zero with everything
        rel = self.group.relations
        for c in rel.cols():
            v = self.pairing.mul_vec(c)
            if any(x != 0 for x in v):
                raise ValueError("pairing does not descend to the quotient")

    @property
    def rank(self) -> int:
        return self.group.invariants()[0]


def free_paired(gram_rows, log_grade: int = 0) -> PairedGroup:
    g = Mat(gram_rows, len(gram_rows) if gram_rows else 0)
    return PairedGroup(FgGroup(g.m), g, log_grade)


def discriminant(P: PairedGroup) -> SpecialValue:
    """det(psi(b_i, b_j)) / (N : N')^2 on a maximal independent subset."""
    return discriminant_and_signature(P)[0]


def discriminant_and_signature(P: PairedGroup):
    """(``discriminant(P)``, the signature of the pairing).  With no relations
    the generators are a free basis and the torsion is 1, so both come from
    one ``symmetric_elimination``, with no ``snf`` and no B^T psi B."""
    det, signature = symmetric_elimination(P.pairing.rows)
    rank = P.group.n_gens
    if P.group.relations.n:
        B = P.group.free_basis()
        det = mat_det(B.transpose().mul(P.pairing).mul(B)) / Fraction(P.group.torsion_order()) ** 2
        rank = B.n
    if det == 0:
        raise DegeneratePairing("pairing degenerate on the free quotient")
    return SpecialValue.from_fraction(det, P.log_grade * rank, 0), signature


# ---------------------------------------------------------------------------
# complexes and z-invariants


@dataclass
class GroupComplex:
    """Cochain complex of f.g. groups: maps[i] : groups[i] -> groups[i+1].

    ``offset`` is the cohomological degree of groups[0].  Boundary matrices
    act on generators and must be compatible with the presentations.
    """

    groups: list
    maps: list
    offset: int = 0

    def __post_init__(self):
        if len(self.maps) != max(0, len(self.groups) - 1):
            raise ValueError("need exactly one map between consecutive groups")
        for i, d in enumerate(self.maps):
            src, dst = self.groups[i], self.groups[i + 1]
            if d.m != dst.n_gens or d.n != src.n_gens:
                raise ValueError(f"map {i} has wrong shape")
            # d must send relations into relations
            for c in src.relations.cols():
                if not in_span(dst.relations, d.mul_vec(c)):
                    raise ValueError(f"map {i} does not respect relations")
        for i in range(len(self.maps) - 1):
            comp = self.maps[i + 1].mul(self.maps[i])
            tgt = self.groups[i + 2]
            for c in comp.cols():
                if not in_span(tgt.relations, c):
                    raise ValueError(f"d^2 != 0 at position {i}")

    def cohomology(self, i: int) -> FgGroup:
        """H^i as a presented group (i indexes into ``groups``)."""
        grp = self.groups[i]
        n = grp.n_gens
        if i < len(self.maps):
            K = preimage_kernel(self.maps[i], self.groups[i + 1].relations)
        else:
            K = Mat.identity(n)
        img_cols = grp.relations
        if i > 0:
            img_cols = img_cols.hstack(self.maps[i - 1])
        rels = preimage_kernel(K, img_cols)
        return FgGroup(K.n, rels)


def z_invariant(C: GroupComplex) -> Fraction:
    """Alternating product of cohomology orders, prod [H^i]^((-1)^i)."""
    z = Fraction(1)
    for idx in range(len(C.groups)):
        H = C.cohomology(idx)
        order = H.order()
        if order is None:
            raise InfiniteHomology(f"H^{C.offset + idx} is infinite")
        deg = C.offset + idx
        z *= Fraction(order) if deg % 2 == 0 else Fraction(1, order)
    return z


def two_term(f: Mat) -> GroupComplex:
    """View f : Z^a -> Z^b as a complex in degrees 0 and 1, so that
    z = [ker f]/[coker f]."""
    return GroupComplex([FgGroup(f.n), FgGroup(f.m)], [f])


def z_triangle_check(K: GroupComplex, L: GroupComplex, M: GroupComplex, inj: list, surj: list) -> bool:
    """Verify z(K) * z(M) = z(L) for a degreewise exact 0 -> K -> L -> M -> 0.

    ``inj`` and ``surj`` are per-degree matrices of free complexes.  Raises
    NotExact when the sequence fails to be exact in some degree.
    """
    for i in range(len(L.groups)):
        a, b, c = K.groups[i], L.groups[i], M.groups[i]
        fi, gi = inj[i], surj[i]
        if kernel_basis(fi).n:
            raise NotExact(f"injection has kernel in degree {i}")
        if not gi.mul(fi).is_zero():
            raise NotExact(f"composite nonzero in degree {i}")
        # surjectivity: cokernel of gi trivial
        if FgGroup(c.n_gens, gi).order() != 1:
            raise NotExact(f"not surjective in degree {i}")
        # ker(gi) = im(fi)
        kg = kernel_basis(gi)
        for col in kg.cols():
            if not in_span(fi, col):
                raise NotExact(f"kernel exceeds image in degree {i}")
    return z_invariant(K) * z_invariant(M) == z_invariant(L)


# ---------------------------------------------------------------------------
# subquotients and the splitting identities


def yun_split(P: PairedGroup, gamma: Mat, gamma_prime: Mat):
    """Discriminant bookkeeping for an isotropic subgroup.

    Returns (d_lambda, d_lambda0, d_mixed, holds_abs, holds_signed) where
    d_mixed is the discriminant of the induced pairing
    gamma x (ambient / gamma') -> Z.  The absolute-value identity
    |d_lambda| = |d_lambda0| * d_mixed^2 is the content; the signed identity
    is reported but can fail (indefinite pairings).
    """
    psi = P.pairing
    # gamma isotropic
    G = gamma.transpose().mul(psi).mul(gamma)
    if not G.is_zero():
        raise NotIsotropic("gamma does not pair to zero with itself")
    # gamma' inside gamma-perp
    C = gamma_prime.transpose().mul(psi).mul(gamma)
    if not C.is_zero():
        raise NotIsotropic("gamma' is not orthogonal to gamma")
    # gamma subset of gamma'
    for col in gamma.cols():
        if not in_span(gamma_prime.hstack(P.group.relations), col):
            raise NotIsotropic("gamma is not contained in gamma'")
    # finite index in the perp: ranks must agree (relations included on both
    # sides; the perp always contains them since they pair to zero)
    perp = kernel_basis(gamma.transpose().mul(psi))

    def span_rank(m: Mat) -> int:
        D, _, _ = snf(m)
        return sum(1 for i in range(min(D.m, D.n)) if D.rows[i][i])

    if span_rank(gamma_prime.hstack(P.group.relations)) != span_rank(perp):
        raise IndexInfinite("gamma' has infinite index in the orthogonal complement")

    d_lambda = discriminant(P)
    d_lambda0 = discriminant(subgroup_quotient(P, gamma_prime, gamma))
    d_mixed = mixed_discriminant(P, gamma, gamma_prime)

    lhs = abs(d_lambda.signed_value)
    rhs = abs(d_lambda0.signed_value) * d_mixed**2
    holds_abs = lhs == rhs
    holds_signed = d_lambda.signed_value == d_lambda0.signed_value * d_mixed**2
    return d_lambda, d_lambda0, d_mixed, holds_abs, holds_signed


def subgroup_quotient(P: PairedGroup, big: Mat, small: Mat) -> PairedGroup:
    """big/small as a paired group on the columns of big (pairing restricted
    from the ambient); with no columns in small, the subgroup big spans."""
    rels = preimage_kernel(big, small.hstack(P.group.relations))
    pairing = big.transpose().mul(P.pairing).mul(big)
    return PairedGroup(FgGroup(big.n, rels), pairing, P.log_grade)


def mixed_discriminant(P: PairedGroup, gamma: Mat, gamma_prime: Mat) -> Fraction:
    """Discriminant of gamma x (ambient/gamma') -> Z: determinant of the
    pairing matrix on free bases divided by both torsion indices."""
    n = P.group.n_gens
    gam_grp = subgroup_quotient(P, gamma, Mat.zero(n, 0)).group
    BG = gamma.mul(gam_grp.free_basis())
    quot = FgGroup(n, gamma_prime.hstack(P.group.relations))
    BA = quot.free_basis()
    if BG.n != BA.n:
        raise DegeneratePairing("mixed pairing is not square")
    M = BG.transpose().mul(P.pairing).mul(BA)
    det = mat_det(M)
    if det == 0 and BG.n > 0:
        raise DegeneratePairing("mixed pairing degenerate")
    idx = Fraction(gam_grp.torsion_order() * quot.torsion_order())
    return det / idx if BG.n > 0 else Fraction(1) / idx


def orthogonal_split_check(P: PairedGroup, sub_gens: Mat):
    """Check disc(N) = disc(N') * disc(N'') for N'' = N/N' with the pairing
    transported through the rational orthogonal projection away from N'.

    Returns (d_N, d_sub, d_quot, holds).  Raises DegeneratePairing when the
    pairing does not restrict non-degenerately to N', in which case no
    orthogonal splitting exists.
    """
    n = P.group.n_gens
    d_N = discriminant(P)
    sub = subgroup_quotient(P, sub_gens, Mat.zero(n, 0))
    d_sub = discriminant(sub)

    B = sub_gens.mul(sub.group.free_basis())  # ambient lift of N' basis
    r = B.n
    psi = P.pairing
    G1 = B.transpose().mul(psi).mul(B)
    if r and mat_det(G1) == 0:
        raise DegeneratePairing("no orthogonal complement: N' is degenerate")
    # projection away from N': x -> x - B G1^{-1} B^T psi x
    proj_pairing = psi
    if r:
        corr = B.mul(mat_inverse(G1)).mul(B.transpose().mul(psi))
        Pm = Mat([[int(i == j) - corr.rows[i][j] for j in range(n)] for i in range(n)], n)
        proj_pairing = Pm.transpose().mul(psi).mul(Pm)
    quot = FgGroup(n, sub_gens.hstack(P.group.relations))
    d_quot = discriminant(PairedGroup(quot, proj_pairing, P.log_grade))
    holds = d_N.signed_value == d_sub.signed_value * d_quot.signed_value and (
        d_N.log_power == d_sub.log_power + d_quot.log_power
    )
    return d_N, d_sub, d_quot, holds

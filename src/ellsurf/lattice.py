"""The lattices a report reads, as integer Gram rows (``list[list[int]]``):
each bad fiber's component lattice and the Neron-Severi lattice.  Both go
through one exact elimination, ``symmetric_elimination``: the fraction-free
(Bareiss) step as a symmetric congruence elimination, one pass for the
signature (Sylvester's law of inertia) and the determinant, its last pivot.

Discriminant signs are computed and carried, but the identity checks that
consume them compare absolute values and report sign agreement separately;
no global sign convention is imposed.  The paper's lattice lemmas are
checked on random lattices in ``tests/lattice_lemmas.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegeneratePairing, NontrivialMW
from .exactalg import SpecialValue


def _cleared(rows) -> tuple[list[list[int]], int]:
    """(l M as integer rows, l) for the least common denominator l > 0 of
    the entries of a rational matrix M given by its rows."""
    l = math.lcm(1, *(x.denominator for r in rows for x in r))
    return [[int(x * l) for x in r] for r in rows], l


def _bareiss_step(a: list[list[int]], k: int, prev: int, rows) -> int:
    """One fraction-free (Bareiss) step on integer rows: clear column k of
    ``rows`` against pivot row k by row_i <- (p row_i - a[i][k] row_k) / prev,
    p = a[k][k] and prev the previous pivot.  Every entry stays a minor of
    the input, so the division is exact.  Returns p."""
    rk = a[k]
    p = rk[k]
    for i in rows:
        f = a[i][k]
        a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], rk)]
    return p


def symmetric_elimination(rows):
    """(det M, (positives, negatives, zeros)) of the symmetric rational
    matrix M with these rows.

    By Sylvester's law of inertia the counts are the pivot signs of a
    symmetric congruence elimination, run with the fraction-free step: after
    pivots p_1 .. p_k the trailing block is p_k times the Schur complement,
    so the next Schur pivot has the sign of p_(k+1) p_k.  A pivot is a
    nonzero diagonal entry swapped in; failing one, adding row and column j
    to k makes the pivot 2 a[k][j]; a zero row is a zero eigenvalue, and
    det M = 0.  Else, as the congruences have determinant +-1 and the step
    keeps every entry a minor (Bareiss, Math. Comp. 22, 1968), the last
    pivot is det(l M) = l^n det M, l the common denominator."""
    a, l = _cleared(rows)
    n = len(a)
    pos = neg = zeros = 0
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is not None:
            a[k], a[piv] = a[piv], a[k]
            for r in a:
                r[k], r[piv] = r[piv], r[k]
        else:
            j = next((j for j in range(k + 1, n) if a[k][j]), None)
            if j is None:
                zeros += 1
                continue
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for r in a:
                r[k] += r[j]
        if (a[k][k] > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prev = _bareiss_step(a, k, prev, range(k + 1, n))
    det = 0 if zeros else prev
    return (det if l == 1 else Fraction(det, l**n)), (pos, neg, zeros)


def discriminant(gram, log_grade: int) -> SpecialValue:
    """det(gram) * (log q)^(log_grade * rank) of a free lattice."""
    return discriminant_and_signature(gram, log_grade)[0]


def discriminant_and_signature(gram, log_grade: int):
    """(``discriminant``, signature) from one ``symmetric_elimination``;
    ``log_grade`` is 1 for height-type pairings, 0 for intersection forms.
    Raises DegeneratePairing when the Gram matrix is singular."""
    det, signature = symmetric_elimination(gram)
    if det == 0:
        raise DegeneratePairing("pairing degenerate on the free quotient")
    return SpecialValue.from_fraction(det, log_grade * len(gram), 0), signature


# ---------------------------------------------------------------------------
# Neron-Severi assembly for trivial Mordell-Weil


def ns_lattice_build(chi: int, fiber_blocks: list, mw_rank: int, mw_torsion_order: int) -> list[list[int]]:
    """Gram rows on {zero section, fiber class} + non-identity fiber components.

    ``fiber_blocks`` are the per-place Gram rows of the non-identity
    component orbits, already scaled to base-field intersection numbers.
    The pairing is height-type (log grade 1).  Only the trivial
    Mordell-Weil case is constructible here.
    """
    if mw_rank != 0 or mw_torsion_order != 1:
        raise NontrivialMW(
            "Neron-Severi basis needs trivial Mordell-Weil group "
            f"(declared rank {mw_rank}, torsion {mw_torsion_order})"
        )
    size = 2 + sum(len(b) for b in fiber_blocks)
    gram = [[0] * size for _ in range(size)]
    gram[0][:2], gram[1][0] = [-chi, 1], 1
    off = 2
    for b in fiber_blocks:
        for i, row in enumerate(b):
            gram[off + i][off : off + len(b)] = row
        off += len(b)
    return gram

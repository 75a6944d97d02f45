"""Models and fibers shared by the tests: the ``model`` helper, catalog
surfaces over GF(5), fibers at fabricated places, and c_v from the dual
graph (``component_group_fixed_order``), the independent route to the
Tamagawa table.  pytest does not collect this module (no ``test_`` prefix)."""

from ellsurf.errors import InconsistentFiberData
from ellsurf.ffield import Poly, PrimeField, find_irreducible, place_finite
from ellsurf.tatefiber import FiberData, WeierstrassModel, geometric_gram, make_fiber
from lattice_lemmas import IndexInfinite, Mat, lattice_index, preimage_kernel

F5 = PrimeField(5)


def model(field, a4, a6, a1=0, a2=0, a3=0):
    mk = lambda c: c if isinstance(c, list) else [c]
    return WeierstrassModel(field, mk(a1), mk(a2), mk(a3), mk(a4), mk(a6))


X3T = model(F5, 0, [0, 1])
LEGENDRE = WeierstrassModel(F5, [0], [-1, -1], [0], [0, 1], [0])  # y2=x(x-1)(x-t)
GENERIC_I1 = model(F5, [0, 1], [0, 1])


def synthetic_fiber(q: int, degree: int, kod: str, splitting=None, field=None) -> FiberData:
    """A FiberData at a fabricated place, for identity tests that need a
    specific Kodaira type without a witnessing model."""
    field = field or PrimeField(q)
    if degree == 1:
        place = place_finite(Poly(field, [0, 1]))
    else:
        place = place_finite(find_irreducible(field, degree))
    return make_fiber(place, q, kod, splitting)


def component_group_fixed_order(f: FiberData) -> int:
    """Order of the Frobenius-fixed subgroup of the geometric component
    group, computed from the dual graph: an independent route to c_v."""
    if f.is_good:
        return 1
    M, mult, perm = geometric_gram(f.kodaira, f.splitting)
    g = len(mult) - 1
    if g == 0:
        return 1
    # geometric non-identity Gram and the induced permutation
    idx = [i for i in range(len(mult)) if i != 0]
    pos = {node: k for k, node in enumerate(idx)}
    gram = Mat([[M[i][j] for j in idx] for i in idx], g)
    pmat = Mat.zero(g, g)
    for node in idx:
        image = perm[node]
        if image == 0:
            raise InconsistentFiberData(f"{f.kodaira}: Frobenius moves the identity component")
        pmat.rows[pos[image]][pos[node]] = 1
    shifted = Mat([[pmat.rows[i][j] - (1 if i == j else 0) for j in range(g)] for i in range(g)], g)
    K = preimage_kernel(shifted, gram)
    iK = lattice_index(K)
    iG = lattice_index(gram)
    if iK is None or iG is None:
        raise IndexInfinite(f"{f.kodaira}: component lattice of lower rank")
    if iG % iK:
        raise InconsistentFiberData(f"{f.kodaira}: fixed index {iK} does not divide {iG}")
    return iG // iK

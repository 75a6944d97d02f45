"""Built-in fixture surfaces with frozen expectations.

Every expected value here was produced by running the pipeline itself and
cross-checking against the independent oracles in the test suite (naive
point enumeration, dual-route polynomial comparison); nothing is hand-typed
without an oracle behind it.  Digests freeze the canonical JSON report and
are regenerated by scripts/freeze_catalog.py.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    config_text: str
    summary: str
    expected: dict = field(default_factory=dict)


CATALOG = {}


def _add(name, config_text, summary, **expected):
    CATALOG[name] = CatalogEntry(name, config_text, summary, expected)


_add(
    "x3_plus_t_f5",
    """\
# y^2 = x^3 + t over GF(5)
[field]
p = 5
[model]
a4 = 0
a6 = 0, 1
[metadata]
mw_rank = 0
mw_torsion_order = 1
notes = rational elliptic surface; fibers II at t=0 and II* at infinity
""",
    "y^2 = x^3 + t over GF(5): II + II*, rank 0",
    e=12,
    b2=10,
    fibers={"oo": "II*", "(t)": "II"},
    rho=10,
    m=8,
    c_j=1,
    deg_l=0,
    counts=(76, 876),
    predicted_br="1",
    predicted_sha="1",
)

_add(
    "x3_plus_t_f7",
    """\
# y^2 = x^3 + t over GF(7)
[field]
p = 7
[model]
a4 = 0
a6 = 0, 1
[metadata]
mw_rank = 0
mw_torsion_order = 1
notes = as over GF(5) but with a non-supersingular trace pattern
""",
    "y^2 = x^3 + t over GF(7): II + II*, rank 0",
    e=12,
    b2=10,
    fibers={"oo": "II*", "(t)": "II"},
    rho=10,
    m=8,
    c_j=1,
    deg_l=0,
    counts=(120, 2892),
    predicted_br="1",
    predicted_sha="1",
)

_add(
    "legendre_f5",
    """\
# y^2 = x(x-1)(x-t) over GF(5)
[field]
p = 5
[model]
a2 = -1, -1
a4 = 0, 1
[metadata]
mw_rank = 0
mw_torsion_order = 4
notes = full 2-torsion (Z/2 x Z/2); fibers I2, I2, I2*
""",
    "Legendre family over GF(5): I2 + I2 + I2*, rank 0, torsion (Z/2)^2",
    e=12,
    b2=10,
    rho=10,
    m=8,
    c_j=16,
    deg_l=0,
    predicted_sha="1",
)

_add(
    "generic_i1_f5",
    """\
# y^2 = x^3 + t x + t over GF(5)
[field]
p = 5
[model]
a4 = 0, 1
a6 = 0, 1
[metadata]
mw_rank = 1
mw_torsion_order = 1
notes = fibers II, nonsplit I1, III*; (x,y) = (-1,2) has infinite order
""",
    "y^2 = x^3 + tx + t over GF(5): II + I1 + III*, rank 1",
    e=12,
    b2=10,
    rho=10,
    m=7,
    c_j=2,
    deg_l=1,
    l_poly=("1", "-5"),
)


# canonical-report digests (sha256 of `ellsurf report --catalog NAME`);
# regenerated by scripts/freeze_catalog.py after any intentional change
DIGESTS = {
    "generic_i1_f5": "bceff32b2dd1a09402be373489b5fd44b6e30b2dc9c5d8210a47ff33b197ab62",
    "legendre_f5": "81a3d15903132988dd07ba092d9a0e1fc0ac83d99b031f07045ca005573ff7ae",
    "x3_plus_t_f5": "28802f68f72cdac5113d70a003a3c6abdf70cc3e48f40159496c6a9577981b5d",
    "x3_plus_t_f7": "778388c337bf2ad05a1af745b6bb485b00fcbe580dec5f5de81e1998ad37475e",
}

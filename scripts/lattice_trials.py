#!/usr/bin/env python3
"""Standalone randomized trials for the lattice identities.

Usage: python scripts/lattice_trials.py [trials] [seed]

Runs acceptance criterion 5's generators (``tests/lattice_cases.py``),
``trials`` times each from one ``random.Random(seed)`` (defaults 1000 and
0): the isotropic splitting identity, absolute and with the exact sign
d_lambda = -d_lambda0 * d_mixed^2, the orthogonal splitting of
discriminants, and the triangle multiplicativity of the z-invariant.
Prints one line per identity; a failed identity raises AssertionError.
Runs from a checkout: it puts the repository's ``src`` and ``tests`` on
``sys.path`` itself."""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lattice_cases import orthogonal_trial, yun_trial, z_triangle_trial  # noqa: E402

LINES = (
    (yun_trial, "isotropic splitting: {} trials, absolute identity and d = -d0 * dm^2 always hold"),
    (orthogonal_trial, "orthogonal splitting: {} trials, identity always holds"),
    (z_triangle_trial, "z-invariant triangles: {} trials, multiplicativity always holds"),
)


def main(argv):
    trials = int(argv[0]) if argv else 1000
    seed = int(argv[1]) if len(argv) > 1 else 0
    rng = random.Random(seed)
    for trial, line in LINES:
        for _ in range(trials):
            trial(rng)
        print(line.format(trials))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

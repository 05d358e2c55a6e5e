"""Random exact 3-term chain complexes, one at a time: the per-fixture
draw that `verify.random_acyclic_stacks` replaced with one stacked draw
per dims.  The tests use it for single complexes and for the reference
loop of the basis-independence check."""

import numpy as np

from fig8torsion.chain import ChainComplex


def random_acyclic_complex(rng) -> ChainComplex:
    """Random exact 3-term complex: split a random invertible change of
    basis of the middle space into an injection and a projection."""
    d2 = int(rng.integers(1, 3))
    d0 = int(rng.integers(1, 3))
    d1 = d0 + d2
    while True:
        pmat = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
        if abs(np.linalg.det(pmat)) > 1e-3:
            break
    inj = pmat[:, :d2]                      # boundary C2 -> C1
    proj = np.linalg.inv(pmat)[d2:, :]      # boundary C1 -> C0
    return ChainComplex(dims=(d0, d1, d2), boundaries=(proj, inj))

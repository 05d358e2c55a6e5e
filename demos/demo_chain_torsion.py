#!/usr/bin/env python3
"""Torsion of based acyclic chain complexes from first principles.

Shows the convention on tiny complexes, the independence of the value
from the internal basis choices, and the twisted torus complex whose
torsion has modulus 1.

Run:  python3 demos/demo_chain_torsion.py
"""

import numpy as np

from fig8torsion import ChainComplex, solve_t, torsion, \
    torsion_with_basis_perturbation
from fig8torsion.riley import longitude_matrix_word, rep_stacks
from fig8torsion.formulas import torus_torsion_oracle
from fig8torsion.words import X

print("One-map complex 0 -> C --[2]--> C -> 0:")
cx = ChainComplex(dims=(1, 1), boundaries=(np.array([[2.0]], dtype=complex),))
print("  tau =", torsion(cx).value, " (the convention: 1/det)")
print()

print("Three-term complex 0 -> C --[[1],[0]]--> C^2 --[0,3]--> C -> 0:")
cx = ChainComplex(dims=(1, 2, 1),
                  boundaries=(np.array([[0.0, 3.0]], dtype=complex),
                              np.array([[1.0], [0.0]], dtype=complex)))
print("  tau =", torsion(cx).value)
print("  randomized internal bases, seeds 0..4:")
for seed in range(5):
    print("   seed", seed, "->", torsion_with_basis_perturbation(cx, seed).value)
print()

print("Twisted torus complex (generators -> rho(x), rho(l)) at s = 2:")
pt = solve_t(2.0)[0]
mx = rep_stacks(pt.s, pt.t)[X][0]
ml = longitude_matrix_word(pt.s, pt.t)
val = torus_torsion_oracle(mx, ml)
print(f"  tau = {val.value:.12g}, |tau| = {abs(val.value):.12f} (expected 1)")

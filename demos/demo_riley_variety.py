#!/usr/bin/env python3
"""Walk through the representation variety of the figure-eight knot
group: solve for the two t-branches over a few values of s, check the
defining relation as a matrix identity, and look at the longitude.

Run:  python3 demos/demo_riley_variety.py
"""

import numpy as np

from fig8torsion import (LONGITUDE, longitude_matrix_closed,
                         longitude_matrix_word, longitude_trace, rep_matrices,
                         solve_t, trace_u, word_to_text)
from fig8torsion.words import evaluate_word, parse_word

print("The knot group is <x, y | wx = yw> with w = x y^-1 x^-1 y.")
print("Longitude word l = w^-1 wtilde =", word_to_text(LONGITUDE))
print()

for s in (1.0, 2.0, 0.5 + 0.5j):
    print(f"s = {s}, u = tr rho(x) = {trace_u(s):.6g}")
    for pt in solve_t(s):
        print(f"  branch {pt.branch}: t = {pt.t:.6g}  |R12| = {pt.residual:.1e}")
        mx, my = rep_matrices(pt)

        # wx = yw as a matrix identity
        mw = evaluate_word(parse_word("xYXy"), mx, my)
        print(f"    ||rho(w)rho(x) - rho(y)rho(w)|| = "
              f"{np.linalg.norm(mw @ mx - my @ mw):.1e}")

        # closed-form longitude vs multiplying out the word
        diff = np.max(np.abs(longitude_matrix_closed(pt)
                             - longitude_matrix_word(pt)))
        print(f"    longitude closed form vs word evaluation: "
              f"max entry diff {diff:.1e}")
        print(f"    tr rho(l) = {longitude_trace(pt):.6g}")
    print()

print("At the geometric point (s = 1, + branch) the longitude has trace"
      " -2, so the boundary torus carries an acyclic representation.")

#!/usr/bin/env python3
"""Walk through the representation variety of the figure-eight knot
group: solve for the two t-branches over a few values of s, check the
defining relation as a matrix identity, and look at the longitude.

Run:  python3 demos/demo_riley_variety.py
"""

import numpy as np

from fig8torsion import (LONGITUDE, longitude_l11, longitude_matrix_word,
                         parse_word, solve_t, trace_l, trace_u, word_to_text)
from fig8torsion.riley import rep_stacks
from fig8torsion.words import X, Y, word_product

print("The knot group is <x, y | wx = yw> with w = x y^-1 x^-1 y.")
print("Longitude word l = w^-1 wtilde =", word_to_text(LONGITUDE))
print()

for s in (1.0, 2.0, 0.5 + 0.5j):
    print(f"s = {s}, u = tr rho(x) = {trace_u(s):.6g}")
    for pt in solve_t(s):
        print(f"  branch {pt.branch}: t = {pt.t:.6g}  |R12| = {pt.residual:.1e}")
        imgs = rep_stacks(pt.s, pt.t)
        mx, my = imgs[X][0], imgs[Y][0]

        # wx = yw as a matrix identity
        mw = word_product(parse_word("xYXy"), imgs)[0]
        print(f"    ||rho(w)rho(x) - rho(y)rho(w)|| = "
              f"{np.linalg.norm(mw @ mx - my @ mw):.1e}")

        # multiply out the longitude word, and compare its l11 and trace
        # with the closed forms; on the variety its l21 vanishes
        ml = longitude_matrix_word(pt.s, pt.t)
        l11, trl = longitude_l11(pt.s, pt.t), trace_l(pt.s, pt.t)
        print(f"    word product: l11 = {ml[0, 0]:.6g}, "
              f"tr rho(l) = {np.trace(ml):.6g}, |l21| = {abs(ml[1, 0]):.1e}")
        print(f"    closed forms: l11 = {l11:.6g}, tr rho(l) = {trl:.6g}")
    print()

print("At the geometric point (s = 1, + branch) the longitude has trace"
      " -2, so the boundary torus carries an acyclic representation.")

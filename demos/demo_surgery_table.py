#!/usr/bin/env python3
"""Which representations survive a p/q Dehn surgery, and what torsion
do they carry?

The surgery adds the relation x^p l^q = 1.  With s = z^q and
lambda = z^-p the figure-eight A-polynomial turns it into one polynomial
in z, whose roots give every character satisfying it; each row reports
u, the longitude trace, and tau(M) = 2(u - 1)/(u^2(u^2 - 5)).

Run:  python3 demos/demo_surgery_table.py
"""

from fig8torsion import SurgerySlope, solve_surgery

for p, q in ((1, 0), (1, 1), (1, 2), (5, 1)):
    sols = solve_surgery(SurgerySlope(p, q))
    print(f"slope {p}/{q}: {len(sols)} character(s)")
    for sol in sols:
        tau = (f"{sol.torsion:.8g}" if sol.torsion is not None
               else "omitted (degenerate)")
        flags = f"  [{','.join(sol.flags)}]" if sol.flags else ""
        print(f"  u = {sol.u:22.12g}  tr rho(l) = {sol.trace_l:22.12g}  "
              f"tau(M) = {tau}{flags}")
    print()

print("Slope 1/0 recovers S^3, whose trivial group has no irreducible")
print("SL(2,C) representations, so the table is empty.")

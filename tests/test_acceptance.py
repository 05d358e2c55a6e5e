"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with the worst residual observed."""

import math

import numpy as np
import pytest

from fig8torsion.riley import (RileyPoint, longitude_l11,
                               longitude_matrix_word, solve_t, trace_l,
                               trace_u)
from fig8torsion.surgery import SurgerySlope, solve_surgery, surgery_residual
from fig8torsion.formulas import (full_report, torsion_exterior_closed,
                                 torsion_exterior_oracle,
                                 torsion_solid_torus_closed,
                                 torsion_solid_torus_from_trace,
                                 torsion_surgered)
from fig8torsion.verify import (check_basis_independence, check_torus_oracle,
                                sample_variety_points)


def report(name, worst, tol):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"[{status}] {name}: max residual {worst:.3e} (tol {tol:.1e})")
    assert worst <= tol, f"{name}: {worst:.3e} > {tol:.1e}"


@pytest.fixture(scope="module")
def points200():
    s, t = sample_variety_points(200, seed=20240823)
    return [RileyPoint(a, b) for a, b in zip(s.tolist(), t.tolist())]


def test_criterion_1_geometric_point_chain():
    plus, _ = solve_t(1.0)
    worst = abs(plus.t - complex(-0.5, math.sqrt(3) / 2))
    assert plus.residual <= 1e-12
    worst = max(worst, abs(trace_l(plus.s, plus.t) - (-2)))
    u = trace_u(plus.s)
    worst = max(worst, abs(torsion_exterior_closed(u) - (-2)))
    worst = max(worst, abs(torsion_solid_torus_from_trace(plus.s, plus.t) - 0.25))
    worst = max(worst, abs(torsion_solid_torus_closed(u) - 0.25))
    worst = max(worst, abs(torsion_surgered(u) - (-0.5)))
    prod = torsion_exterior_closed(u) * torsion_solid_torus_closed(u)
    worst = max(worst, abs(prod - (-0.5)))
    report("criterion 1: geometric point s=1 value chain", worst, 1e-10)


def test_criterion_2_exterior_oracle(points200):
    worst = 0.0
    for pt in points200:
        closed = torsion_exterior_closed(trace_u(pt.s))
        oracle = torsion_exterior_oracle(pt.s, pt.t)
        worst = max(worst, abs(abs(oracle.value) - abs(closed))
                    / max(1.0, abs(closed)))
    report("criterion 2: Fox-calculus exterior oracle, 200 points",
           worst, 1e-8)


def test_criterion_3_trace_identity(points200):
    worst = 0.0
    for pt in points200:
        u = trace_u(pt.s)
        lhs = 2 - trace_l(pt.s, pt.t)
        rhs = -u ** 4 + 5 * u ** 2
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    report("criterion 3: trace identity 2 - tr = u^2(5 - u^2), 200 points",
           worst, 1e-8)


def test_criterion_4_longitude_lemma(points200):
    worst_closed, worst_l21 = 0.0, 0.0
    for pt in points200:
        word = longitude_matrix_word(pt.s, pt.t)
        scale = max(1.0, float(np.max(np.abs(word))))
        gap = max(abs(longitude_l11(pt.s, pt.t) - word[0, 0]),
                  abs(trace_l(pt.s, pt.t) - np.trace(word)))
        worst_closed = max(worst_closed, gap / scale)
        worst_l21 = max(worst_l21, abs(word[1, 0]) / scale)
    report("criterion 4a: closed l11 and tr rho(l) vs word product",
           worst_closed, 1e-9)
    report("criterion 4b: |l21| of the word product on the variety",
           worst_l21, 1e-8)


def test_criterion_5_chain_torsion():
    res = check_basis_independence(20, seed=5)
    report("criterion 5a: basis independence, 20 fixtures x 10 bases",
           res.max_residual, 1e-8)
    res = check_torus_oracle(100, seed=6)
    report("criterion 5b: torus complex |tau| = 1, 100 samples",
           res.max_residual, 1e-8)


def test_criterion_6_theorem_product_identity():
    rng = np.random.default_rng(7)
    worst, done = 0.0, 0
    while done < 1000:
        u = complex(rng.normal(scale=2), rng.normal(scale=2))
        if abs(u * u * (u * u - 5)) <= 1e-6:
            continue
        lhs = torsion_surgered(u)
        rhs = torsion_exterior_closed(u) * torsion_solid_torus_closed(u)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        done += 1
    report("criterion 6: theorem product identity, 1000 random u",
           worst, 1e-12)


def test_criterion_7_surgery_solver():
    assert solve_surgery(SurgerySlope(1, 0)) == []
    slopes = [(1, 1), (2, 1), (3, 1), (5, 1), (1, 2), (3, 2), (5, 3),
              (-1, 2), (4, 1), (5, 4), (-3, 5), (2, 5)]
    worst = 0.0
    n_sol = 0
    for p, q in slopes:
        slope = SurgerySlope(p, q)
        for sol in solve_surgery(slope):
            n_sol += 1
            _, mat_res = surgery_residual(sol.point, slope)
            assert mat_res <= 1e-9
            assert sol.point.residual <= 1e-9
            worst = max(worst, mat_res, sol.point.residual)
            if abs(sol.u ** 2 - 5) <= 1e-6:
                assert "degenerate" in sol.flags
            if sol.torsion is not None:
                err = abs(sol.torsion - torsion_surgered(sol.u)) \
                    / max(1.0, abs(sol.torsion))
                assert err <= 1e-8
                worst = max(worst, err)
    assert n_sol > 0
    report(f"criterion 7: surgery solver, {len(slopes)} slopes, "
           f"{n_sol} solutions", worst, 1e-8)

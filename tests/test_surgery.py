import dataclasses
import math

import numpy as np
import pytest

from fig8torsion.errors import InvalidSlope
from fig8torsion.linalg import E2
from fig8torsion.riley import (RileyPoint, longitude_entries, longitude_l11,
                               longitude_matrix_word, longitude_trace,
                               make_point, rep_matrices, solve_t)
from fig8torsion.surgery import (BRANCH_POINT_TOL, CSV_HEADER, SurgerySlope,
                                 _aligned_l11, _candidates,
                                 _relation_residuals, _row_key, solve_surgery,
                                 surgery_residual, table_to_csv, table_to_json)
from fig8torsion.formulas import torsion_surgered
from fig8torsion.verify import sample_variety_points


def test_slope_validation():
    SurgerySlope(1, 0)
    SurgerySlope(-3, 2)
    with pytest.raises(InvalidSlope):
        SurgerySlope(0, 0)
    with pytest.raises(InvalidSlope):
        SurgerySlope(6, 4)


def test_aligned_eigenvalue_geometric():
    pt = solve_t(1.0)[0]
    assert abs(longitude_entries(pt.s, pt.t)[0] - (-1)) < 1e-10


def test_aligned_eigenvalue_properties_random():
    """On the variety l21 = 0, so the aligned eigenvalue lam = l11 has
    lam + 1/lam = tr rho(l) and lam * l22 = det rho(l) = 1."""
    for pt in sample_variety_points(50, seed=0):
        lam, _, l21, l22 = longitude_entries(pt.s, pt.t)
        trl = longitude_trace(pt)
        scale = max(1.0, abs(lam), abs(trl))
        assert abs(l21) <= 1e-8 * scale
        assert abs(lam + 1 / lam - trl) <= 1e-8 * scale
        assert abs(lam * l22 - 1) <= 1e-8 * scale


def test_aligned_eigenvalue_off_variety():
    """Off the variety l21 does not vanish, and the solver's l21 check
    refuses the point."""
    pt = make_point(2.0, 0.7)
    _, aligned = _aligned_l11(np.array([pt.s]), np.array([pt.t]))
    assert not aligned[0]
    assert abs(longitude_entries(pt.s, pt.t)[2]) > 1e-3


def test_surgery_residual_nonzero_cases():
    pt = solve_t(1.0)[0]
    # slope (1,0): rho(x) != E for every irreducible point
    _, res = surgery_residual(pt, SurgerySlope(1, 0))
    assert res > 0.5
    # slope (0,1) at the geometric point: tr rho(l) = -2 != 2
    _, res = surgery_residual(pt, SurgerySlope(0, 1))
    assert res > 0.5


def test_scalar_vs_matrix_residual():
    # matrix norm small multiple of scalar residual when s^2 away from 1
    slope = SurgerySlope(2, 1)
    for pt in sample_variety_points(30, seed=1):
        if abs(pt.s * pt.s - 1) < 0.1:
            continue
        scalar, mat = surgery_residual(pt, slope)
        if abs(scalar) < 1e-6:
            assert mat <= 1e3 * max(abs(scalar), 1e-12)


def test_trivial_slope_empty():
    assert solve_surgery(SurgerySlope(1, 0)) == []


def test_solutions_satisfy_relation():
    slope = SurgerySlope(1, 1)
    sols = solve_surgery(slope)
    assert sols, "expected at least one solution for slope 1/1"
    for sol in sols:
        mx, _ = rep_matrices(sol.point)
        ml = longitude_matrix_word(sol.point)
        res = np.linalg.norm(mx @ ml - E2)
        assert res <= 1e-9
        assert sol.point.residual <= 1e-9
        if sol.torsion is not None:
            expect = torsion_surgered(sol.u)
            assert abs(sol.torsion - expect) <= 1e-8 * max(1, abs(expect))


def test_solution_torsion_matches_report():
    from fig8torsion.formulas import full_report
    for sol in solve_surgery(SurgerySlope(1, 1)):
        if sol.torsion is None:
            continue
        rep = full_report(sol.point)
        if rep.tau_surgered is not None:
            assert abs(sol.torsion - rep.tau_surgered) \
                <= 1e-8 * max(1, abs(sol.torsion))


@pytest.mark.parametrize("p, q, count", [
    # characters near u^2 = 5 and on |s| = 1, easy for a seeded search to miss
    (2, 5, 20), (13, 5, 19), (1, 8, 31), (3, 8, 31),
    # u = +-1, where the two t-branches meet
    (-3, 1, 3), (3, 2, 7),
    # s = +-i, a double root; at 4/1 the extreme coefficients also cancel
    (4, 1, 1), (0, 1, 3),
    # S^3: only the parabolic z = -1, which the matrix residual rejects
    (1, 0, 0),
])
def test_character_count(p, q, count):
    """Every root of the A-polynomial relation that survives the filters
    is a row: the table is complete for the slope."""
    assert len(solve_surgery(SurgerySlope(p, q))) == count


def test_solver_residual_is_one_point_residual():
    """The solver filters on the stacked residual; surgery_residual, which
    every check re-tests a row with, is its N = 1 call and gives the same
    bits, for the rows and for every candidate."""
    slopes = [(p, q) for q in range(1, 5) for p in range(-6, 7)
              if math.gcd(p, q) == 1]
    assert len(slopes) == 33
    for p, q in slopes + [(29, 6), (36, 5), (-39, 14), (1, 16)]:
        slope = SurgerySlope(p, q)
        for row in solve_surgery(slope):
            assert row.relation_residual \
                == surgery_residual(row.point, slope)[1], (p, q)
        s, _, t, _, _ = _candidates(slope)
        stacked = _relation_residuals(s, t, slope)
        one_point = [surgery_residual(RileyPoint(sk, tk), slope)[1]
                     for sk, tk in zip(s.tolist(), t.tolist())]
        assert stacked.tolist() == one_point, (p, q)


# rows whose |u| tie in exact arithmetic (u and -conj(u)) abound here
TIED_SLOPES = [(-18, 13), (10, 7), (32, 7)]


@pytest.mark.parametrize("p, q", [
    (2, 5), (13, 5), (1, 8), (3, 8), (-3, 1), (3, 2), (4, 1), (0, 1),
    (1, 0)] + TIED_SLOPES)
def test_stacked_candidates_match_scalar(p, q):
    """Every stacked candidate has the t and the branch that the scalar
    solve_t(s) and the nearest-l11 choice give.  Where the two branches
    meet, t comes from the branch-point rule instead, so those are
    exempt."""
    s, lam, t, branch, _ = _candidates(SurgerySlope(p, q))
    checked = 0
    for sk, lk, tk, bk in zip(s.tolist(), lam.tolist(), t.tolist(),
                              branch.tolist()):
        plus, minus = solve_t(sk)
        if abs(plus.t - minus.t) <= BRANCH_POINT_TOL:
            continue
        pick = min(plus, minus,
                   key=lambda b: abs(longitude_l11(sk, b.t) - lk))
        assert bk == pick.branch, (p, q, sk)
        assert abs(tk - pick.t) <= 1e-12 * abs(pick.t), (p, q, sk)
        checked += 1
    # only the roots at u = +-1 and u^2 = 5 are exempt: at most 4 here
    assert checked >= len(s) - 4


@pytest.mark.parametrize("p, q", TIED_SLOPES)
def test_row_order_stable_under_last_bit_changes(p, q):
    """Moving every u by a few ulps leaves the row order as it is."""
    rows = solve_surgery(SurgerySlope(p, q))
    assert any(abs(abs(a.u) - abs(b.u)) <= 1e-12 * abs(a.u)
               for a, b in zip(rows, rows[1:]))
    rng = np.random.default_rng([abs(p), q])

    def nudge(x):
        for _ in range(rng.integers(1, 4)):
            x = np.nextafter(x, rng.choice([-np.inf, np.inf]))
        return float(x)

    for _ in range(20):
        moved = [dataclasses.replace(
                     row, u=complex(nudge(row.u.real), nudge(row.u.imag)))
                 for row in rows]
        assert sorted(moved, key=_row_key) == moved


def test_slope_sign_symmetry():
    a = solve_surgery(SurgerySlope(2, 1))
    b = solve_surgery(SurgerySlope(-2, -1))
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert abs(sa.u - sb.u) <= 1e-7 * max(1, abs(sa.u))
        assert abs(sa.trace_l - sb.trace_l) <= 1e-7 * max(1, abs(sa.trace_l))


def test_determinism():
    a = solve_surgery(SurgerySlope(3, 1))
    b = solve_surgery(SurgerySlope(3, 1))
    assert [sol.to_csv_row() for sol in a] == [sol.to_csv_row() for sol in b]


def test_sorted_by_u():
    sols = solve_surgery(SurgerySlope(1, 1))
    keys = [(abs(s.u), np.angle(s.u)) for s in sols]
    assert keys == sorted(keys)


def test_table_formats():
    sols = solve_surgery(SurgerySlope(1, 1))
    csv = table_to_csv(sols)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(sols) + 1
    assert all(len(line.split(",")) == len(CSV_HEADER.split(","))
               for line in lines[1:])
    import json
    data = json.loads(table_to_json(sols))
    assert len(data) == len(sols)
    if data:
        assert set(data[0]) == {"point", "u", "trace_l", "lambda",
                                "relation_residual", "torsion", "flags"}


def test_empty_table_csv():
    assert table_to_csv([]) == CSV_HEADER + "\n"

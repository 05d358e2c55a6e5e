import cmath
import math

import numpy as np
import pytest

from fig8torsion.errors import SingularParameter
from fig8torsion.linalg import E2, mat2
from fig8torsion.riley import (LONGITUDE, longitude_entries, longitude_l11,
                               longitude_matrix_closed,
                               longitude_matrix_word, longitude_trace,
                               make_point, rep_matrices, rep_stacks,
                               riley_poly, solve_t, trace_l, trace_u)
from fig8torsion.verify import sample_variety_points
from fig8torsion.words import word_to_text


def random_s(rng):
    r = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
    return r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def test_rep_matrices_display():
    pt = make_point(2.0, 1.0)
    mx, my = rep_matrices(pt)
    assert np.allclose(mx, mat2(2, 1, 0, 0.5))
    assert np.allclose(my, mat2(2, 0, -1, 0.5))


def test_rep_matrices_unimodular_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = random_s(rng)
        t = complex(rng.normal(), rng.normal())
        mx, my = rep_matrices(make_point(s, t))
        assert abs(np.linalg.det(mx) - 1) < 1e-12
        assert abs(np.linalg.det(my) - 1) < 1e-12


def test_singular_parameter():
    with pytest.raises(SingularParameter):
        riley_poly(0.0, 1.0)
    with pytest.raises(SingularParameter):
        solve_t(0.0)
    with pytest.raises(SingularParameter):
        trace_u(0.0)


def test_riley_poly_values():
    assert abs(riley_poly(1.0, -1.0) - 1.0) < 1e-14
    omega = complex(-0.5, math.sqrt(3) / 2)
    assert abs(riley_poly(1.0, omega)) < 1e-14


def test_companion_identity_r21():
    # R21 = t * R12 for random (s, t); also checked against the actual
    # matrix entry of rho(w) rho(x) - rho(y) rho(w) in
    # test_homomorphism_relation_on_variety
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = random_s(rng)
        t = complex(rng.normal(), rng.normal())
        s2 = s * s
        r21 = (3 * t - t / s2 - s2 * t + 3 * t * t - t * t / s2
               - s2 * t * t + t ** 3)
        assert abs(r21 - t * riley_poly(s, t)) <= 1e-10 * max(1, abs(t)) ** 3


def test_singular_parameter_in_array():
    # one bad s anywhere in a stack rejects the whole stack
    for bad in (0.0, np.nan):
        s = np.array([2.0, 0.5j, bad, -1.5])
        for call in (lambda: trace_u(s), lambda: longitude_l11(s, s),
                     lambda: rep_stacks(s, s)):
            with pytest.raises(SingularParameter):
                call()


def test_closed_forms_on_arrays():
    # the same expressions on arrays; numpy's complex division rounds
    # differently from Python's, so the values agree to rounding, taken
    # relative to the largest monomial bound |s|^+-4 |t|^4
    pts = sample_variety_points(200, seed=9)
    s = np.array([pt.s for pt in pts])
    t = np.array([pt.t for pt in pts])
    l11, l21, trl = longitude_l11(s, t), longitude_entries(s, t)[2], \
        trace_l(s, t)
    for k, pt in enumerate(pts):
        scale = max(1.0, abs(pt.s), 1 / abs(pt.s)) ** 4 \
            * max(1.0, abs(pt.t)) ** 4
        for array_value, scalar in (
                (l11[k], longitude_l11(pt.s, pt.t)),
                (l21[k], longitude_matrix_closed(pt)[1, 0]),
                (trl[k], longitude_trace(pt))):
            assert abs(array_value - scalar) <= 1e-13 * scale


def test_rep_stacks_match_rep_matrices():
    # images of x, y, x^-1, y^-1 (letters 1, 2, -1, -2) on one stack
    pts = sample_variety_points(20, seed=10)
    imgs = rep_stacks([pt.s for pt in pts], [pt.t for pt in pts])
    for k, pt in enumerate(pts):
        scale = max(1.0, abs(pt.s), 1 / abs(pt.s), abs(pt.t)) ** 2
        for g, img in zip((1, 2), rep_matrices(pt)):
            assert np.max(np.abs(imgs[g][k] - img)) <= 1e-15 * scale
            assert np.max(np.abs(imgs[-g][k] @ img - E2)) <= 1e-15 * scale


def test_solve_t_branches():
    plus, minus = solve_t(1.0)
    omega = complex(-0.5, math.sqrt(3) / 2)
    assert abs(plus.t - omega) < 1e-14
    assert abs(minus.t - omega.conjugate()) < 1e-14
    assert plus.branch == "+" and minus.branch == "-"


def test_solve_t_residuals_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = random_s(rng)
        for pt in solve_t(s):
            scale = max(1.0, abs(pt.s) ** 2, abs(pt.t) ** 2)
            assert pt.residual <= 1e-12 * scale * max(1, abs(pt.t))
            assert pt.on_variety()


def test_homomorphism_relation_on_variety():
    # R = rho(w) rho(x) - rho(y) rho(w) vanishes at solved points,
    # with the diagonal entries zero identically
    from fig8torsion.words import evaluate_word, parse_word
    w = parse_word("xYXy")
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = random_s(rng)
        for pt in solve_t(s):
            mx, my = rep_matrices(pt)
            mw = evaluate_word(w, mx, my)
            r = mw @ mx - my @ mw
            scale = max(1.0, float(np.max(np.abs(mw))) ** 2)
            assert np.max(np.abs(r)) <= 1e-9 * scale
    # diagonal entries vanish off the variety too
    for _ in range(20):
        pt = make_point(random_s(rng), complex(rng.normal(), rng.normal()))
        mx, my = rep_matrices(pt)
        mw = evaluate_word(w, mx, my)
        r = mw @ mx - my @ mw
        scale = max(1.0, float(np.max(np.abs(mw))) ** 2)
        assert abs(r[0, 0]) <= 1e-10 * scale
        assert abs(r[1, 1]) <= 1e-10 * scale


def test_longitude_word():
    lw = LONGITUDE
    assert word_to_text(lw) == "YxyXXyxY"   # w^-1 wtilde, w = xYXy
    assert len(lw) == 8
    assert sum(1 for a in lw if abs(a) == 1 and a > 0) \
        == sum(1 for a in lw if abs(a) == 1 and a < 0)   # x-degree 0
    assert sum(1 for a in lw if abs(a) == 2 and a > 0) \
        == sum(1 for a in lw if abs(a) == 2 and a < 0)   # y-degree 0


def test_longitude_trivial_at_t_zero():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pt = make_point(random_s(rng), 0.0)
        assert np.max(np.abs(longitude_matrix_word(pt) - E2)) < 1e-10


def test_longitude_closed_vs_word():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = random_s(rng)
        for pt in solve_t(s):
            closed = longitude_matrix_closed(pt)
            word = longitude_matrix_word(pt)
            scale = max(1.0, float(np.max(np.abs(word))))
            assert np.max(np.abs(closed - word)) <= 1e-9 * scale
            assert abs(np.linalg.det(closed) - 1) <= 1e-10 * scale ** 2
            assert abs(closed[1, 0]) <= 1e-8 * scale


def test_peripheral_commutation():
    rng = np.random.default_rng(6)
    for _ in range(50):
        s = random_s(rng)
        for pt in solve_t(s):
            mx, _ = rep_matrices(pt)
            ml = longitude_matrix_word(pt)
            scale = max(1.0, float(np.max(np.abs(ml))))
            assert np.max(np.abs(mx @ ml - ml @ mx)) <= 1e-9 * scale


def test_longitude_trace_values():
    plus, _ = solve_t(1.0)
    assert abs(longitude_trace(plus) - (-2)) < 1e-12
    assert abs(longitude_trace(make_point(1.0, 0.0)) - 2) < 1e-14


def test_trace_u():
    assert abs(trace_u(1.0) - 2) < 1e-15
    assert abs(trace_u(2.0) - 2.5) < 1e-15
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = random_s(rng)
        assert abs(trace_u(s) - trace_u(1 / s)) < 1e-12


def test_branch_symmetry_s_inverse():
    # trace_u and longitude_trace agree at (s, t) and (1/s, t)
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = random_s(rng)
        for pt in solve_t(s):
            mirrored = make_point(1 / s, pt.t)
            assert mirrored.on_variety(1e-8)
            scale = max(1.0, abs(longitude_trace(pt)))
            assert abs(longitude_trace(pt) - longitude_trace(mirrored)) \
                <= 1e-8 * scale


def test_riley_point_json():
    pt = solve_t(2.0)[0]
    data = pt.to_json()
    assert set(data) == {"s", "t", "branch", "residual"}
    assert data["branch"] == "+"
    assert data["s"] == {"re": 2.0, "im": 0.0}

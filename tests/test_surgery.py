import dataclasses
import json
import math
import re
from collections import Counter
from itertools import groupby

import numpy as np
import pytest

from fig8torsion.errors import InvalidSlope
from fig8torsion.linalg import E2
from fig8torsion.riley import (LONGITUDE, RileyPoint, longitude_l11,
                               longitude_matrix_word, rep_stacks,
                               riley_poly, solve_t, trace_l, trace_u,
                               variety_membership)
from fig8torsion import surgery
from fig8torsion.surgery import (BRANCH_POINT_TOL, CSV_HEADER,
                                 MAX_SURGERY_DEGREE, RELATION_TOL,
                                 SurgerySlope, _candidate_columns,
                                 relation_residuals, _row_key, solve_surgery,
                                 surgery_residual, table_to_csv, table_to_json)
from fig8torsion.formulas import torsion_surgered
from fig8torsion.verify import sample_variety_points
from fig8torsion.words import X, parse_word, word_product


def _candidates(slopes):
    """The candidate stacks (s, lam, t, branch, residual) and the list of
    each slope's candidate count: the first six of `_candidate_columns`."""
    return _candidate_columns(slopes)[:6]


def test_slope_validation():
    SurgerySlope(1, 0)
    SurgerySlope(-3, 2)
    with pytest.raises(InvalidSlope):
        SurgerySlope(0, 0)
    with pytest.raises(InvalidSlope):
        SurgerySlope(6, 4)


def test_aligned_eigenvalue_geometric():
    pt = solve_t(1.0)[0]
    assert abs(longitude_l11(pt.s, pt.t) - (-1)) < 1e-10


def test_aligned_eigenvalue_properties_random():
    """On the variety l21 = 0, so the aligned eigenvalue lam = l11 has
    lam + 1/lam = tr rho(l) and lam * l22 = det rho(l) = 1 (l21 and l22
    from the word product)."""
    for pt in map(RileyPoint, *sample_variety_points(50, seed=0)):
        word = longitude_matrix_word(pt.s, pt.t)
        lam, l21, l22 = longitude_l11(pt.s, pt.t), word[1, 0], word[1, 1]
        trl = trace_l(pt.s, pt.t)
        scale = max(1.0, abs(lam), abs(trl))
        assert abs(l21) <= 1e-8 * scale
        assert abs(lam + 1 / lam - trl) <= 1e-8 * scale
        assert abs(lam * l22 - 1) <= 1e-8 * scale


def test_aligned_eigenvalue_off_variety():
    """Off the variety l21 does not vanish, and the variety test refuses
    the point."""
    pt = RileyPoint(2.0, 0.7, residual=abs(riley_poly(2.0, 0.7)))
    assert not variety_membership(pt.s, pt.t, pt.residual)
    assert abs(longitude_matrix_word(pt.s, pt.t)[1, 0]) > 1e-3


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
    for pt in map(RileyPoint, *sample_variety_points(30, seed=1)):
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
        mx = rep_stacks(sol.point.s, sol.point.t)[X][0]
        ml = longitude_matrix_word(sol.point.s, sol.point.t)
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
    # s = +-i, divided out of f and appended exactly; at 4/1 the extreme
    # coefficients also cancel
    (4, 1, 1), (0, 1, 3),
    # S^3: only the parabolic z = -1, which the matrix residual rejects
    (1, 0, 0),
    # the smallest slope of |p| <= 40, q <= 16 where some rows pass only
    # from 1/z (2 of 14): a row per pair needs the 1/z fallback
    (-14, 3, 14),
])
def test_character_count(p, q, count):
    """Every root of the A-polynomial relation that survives the filters
    is a row: the table is complete for the slope."""
    assert len(solve_surgery(SurgerySlope(p, q))) == count


@pytest.mark.parametrize("p, q, count, complete",
                         [(-13, 3, 10, 12), (-15, 4, 15, 15)])
def test_rows_at_the_relation_gate_edge(p, q, count, complete):
    """Row counts that sit at the rounding edge of the absolute
    RELATION_TOL, pinned as they stand so that no change moves them
    unseen (the FOUND line on RELATION_TOL in CHANGES.md).  Taking the
    residual on entry arrays instead of numpy's matmul moved -13/3 from
    12 rows, complete, to 10, and -15/4 from 12 to 15, complete; a
    relative gate is meant to make -13/3 complete again, and then
    updates this count on purpose."""
    assert _expected_count(p, q) == complete
    assert len(solve_surgery(SurgerySlope(p, q))) == count


def _expected_count(p, q):
    """N(p/q) = max(4|q|, |p|) - [p odd] - [4 | p], and 1 at +-4/1: the
    degree n of the pairs z <-> 1/z, less the parabolic pair at z = -1
    when p is odd and the one character at z = +-i when 4 | p."""
    if (abs(p), abs(q)) == (4, 1):
        return 1
    return max(4 * abs(q), abs(p)) - p % 2 - (p % 4 == 0)


SMALL_SLOPES = [(p, q) for q in range(1, 5) for p in range(-6, 7)
                if math.gcd(p, q) == 1]
# rows whose |u| tie in exact arithmetic (u and -conj(u)) abound here
TIED_SLOPES = [(-18, 13), (10, 7), (32, 7)]


def test_row_count_is_the_closed_form():
    assert len(SMALL_SLOPES) == 33
    for p, q in SMALL_SLOPES:
        assert len(solve_surgery(SurgerySlope(p, q))) \
            == _expected_count(p, q), (p, q)


@pytest.mark.parametrize("p, q", [(1, 50), (400, 1)])
def test_large_slopes_complete(p, q):
    """The paper's 1/n family and a large |p| at the CLI's degree limit
    have every character: 199 rows on 1/50 and 399 on 400/1."""
    assert len(solve_surgery(SurgerySlope(p, q))) == _expected_count(p, q)


def _no_roots(slope):
    raise AssertionError(f"roots taken on {slope.p}/{slope.q}")


@pytest.mark.parametrize("slopes", [
    SurgerySlope(1, 101),
    [SurgerySlope(1, 1), SurgerySlope(1, 101), SurgerySlope(2, 1)]],
    ids=["alone", "in_a_sequence"])
def test_degree_limit_refused_before_any_root(monkeypatch, slopes):
    """1/101 needs a degree-404 Chebyshev series, past the 400 of
    MAX_SURGERY_DEGREE: the solver refuses it, alone or anywhere in a
    sequence, before it takes the roots of any slope."""
    assert MAX_SURGERY_DEGREE == 400
    monkeypatch.setattr(surgery, "_roots", _no_roots)
    with pytest.raises(InvalidSlope, match=re.escape(
            "slope 1/101 needs a degree-404 Chebyshev series; "
            "the limit is 400")):
        solve_surgery(slopes)


REAL_TOL = 1e-9     # |Im| up to which u and tr rho([x, y]) count as real


@pytest.mark.parametrize("p, q, su2", [
    (1, 1, 2), (-1, 1, 2), (1, 2, 4), (-1, 2, 4), (1, 3, 6),
    (1, 16, 32), (-1, 16, 32), (1, 50, 100),
    # one short of 2q: ROADMAP item 2 (the absolute relation gate loses
    # 1 of 1/100's 399 rows, an SU(2) one) and item 4 (the second count
    # of the SU(2) rows); item 2's fix makes this 200
    (1, 100, 199)])
def test_casson_count_on_the_1_over_n_slopes(p, q, su2):
    """Casson's surgery formula gives lambda(K_1/n) = n Delta''(1)/2 = -n
    for the figure-eight (Delta = -t + 3 - 1/t; Akbulut and McCarthy,
    1990), so its 1/n surgeries have at least 2|n| irreducible SU(2)
    characters, and here exactly 2|n|: the rows whose u is real in
    (-2, 2).  On each of them tr rho([x, y])
    is real in [-2, 2], as on every SU(2) character (Goldman, 2009).
    A row with that commutator trace and no SU(2) u has a real u with
    |u| > 2, an SL(2, R) character: one such row on -1/1, -1/2, -1/16.
    REAL_TOL sits in the gap of the data: on these slopes the real rows
    read |Im u| <= 1.3e-14 and |Im tr rho([x, y])| <= 1.3e-12, the
    others |Im u| >= 4.7e-7 (rows near u = -2 on 1/100) and
    |Im tr rho([x, y])| >= 1.4e-2.  1/100 is pinned at 199, one short:
    the comment on its case says why."""
    rows = solve_surgery(SurgerySlope(p, q))
    s = np.array([sol.point.s for sol in rows])
    t = np.array([sol.point.t for sol in rows])
    u = np.array([sol.u for sol in rows])
    kappa = np.trace(word_product(parse_word("xyXY"), rep_stacks(s, t)),
                     axis1=1, axis2=2)
    real_u = np.abs(u.imag) <= REAL_TOL
    su2_rows = real_u & (np.abs(u.real) < 2)
    kappa_rows = (np.abs(kappa.imag) <= REAL_TOL) & (np.abs(kappa.real) <= 2)
    assert np.count_nonzero(su2_rows) == su2
    assert np.all(kappa_rows[su2_rows])
    assert np.all((real_u & (np.abs(u.real) > 2))[kappa_rows & ~su2_rows])


@pytest.mark.parametrize(
    "p, q", SMALL_SLOPES + TIED_SLOPES + [(-14, 3), (1, 50), (400, 1)])
def test_rows_are_distinct_characters(p, q):
    """No two rows of a slope are one character: none lie within 1e-6
    relative of each other in both u and tr rho(l)."""
    rows = solve_surgery(SurgerySlope(p, q))
    u = np.array([row.u for row in rows])
    trl = np.array([row.trace_l for row in rows])

    def near(v):    # near(v)[i, j]: v_i is within 1e-6 relative of v_j
        return np.abs(v[:, None] - v) <= 1e-6 * np.maximum(1.0, np.abs(v))

    same = near(u) & near(trl)
    np.fill_diagonal(same, False)
    assert not same.any(), [(rows[i].u, rows[j].u)
                            for i, j in zip(*np.nonzero(same))]


def test_one_half_size_eigenproblem(monkeypatch):
    """A slope makes one eigenproblem, the colleague matrix of f's
    Chebyshev series, of size n = max(4|q|, |p|): 64 x 64 on 1/16, half
    the 128 x 128 companion matrix of z^n f."""
    shapes = []
    eigvals = np.linalg.eigvals

    def recording_eigvals(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    assert len(solve_surgery(SurgerySlope(1, 16))) == _expected_count(1, 16)
    assert shapes == [(64, 64)]
    # a sequence of slopes still makes one eigenproblem per slope
    shapes.clear()
    rows = solve_surgery([SurgerySlope(1, 16), SurgerySlope(3, 2)])
    assert len(rows) == _expected_count(1, 16) + _expected_count(3, 2)
    assert shapes == [(64, 64), (8, 8)]


def test_slope_sequence_is_the_per_slope_calls():
    """One call on a sequence of slopes gives the rows of the per-slope
    calls, slope after slope in input order, bit for bit.  The list
    holds both signs of one slope side by side, a slope twice, the
    slope with no rows and the slope where v^2 is divided out."""
    pairs = (SMALL_SLOPES + [(29, 6), (36, 5), (-39, 14), (1, 16)]
             + TIED_SLOPES + [(1, 0), (0, 1), (2, 1), (-2, -1), (3, 2)])
    slopes = [SurgerySlope(p, q) for p, q in pairs]
    tables = [solve_surgery(slope) for slope in slopes]
    assert all(row.slope == slope
               for slope, table in zip(slopes, tables) for row in table)
    single = [row for table in tables for row in table]
    batch = solve_surgery(slopes)
    assert [(row.slope, row.to_csv_row()) for row in batch] \
        == [(row.slope, row.to_csv_row()) for row in single]
    assert solve_surgery([]) == []


def test_mirror_slopes_conjugate():
    """The figure-eight knot is amphichiral, so M(-p/q) is M(p/q) with
    its orientation reversed, and the characters of -p/q are those of
    p/q with u conjugated.  On every slope pair with 1 <= p <= 40 and
    1 <= q <= 8 whose two tables are both complete, each u of -p/q
    matches its own conjugate u of p/q to 1e-9 relative."""
    pairs = 0
    for q in range(1, 9):
        for p in range(1, 41):
            if math.gcd(p, q) != 1:
                continue
            rows = solve_surgery(SurgerySlope(p, q))
            mirror = solve_surgery(SurgerySlope(-p, q))
            if (len(rows), len(mirror)) != (_expected_count(p, q),
                                            _expected_count(-p, q)):
                continue
            pairs += 1
            unmatched = [row.u.conjugate() for row in rows]
            for row in mirror:
                gaps = np.abs(np.array(unmatched) - row.u)
                k = int(np.argmin(gaps))
                assert gaps[k] <= 1e-9 * max(1.0, abs(row.u)), (p, q, row.u)
                unmatched.pop(k)
    # 134 pairs are complete; a row lost from either table lowers this
    assert pairs >= 134


def test_quarter_turn_row_exact():
    """On every 4 | p slope, |p| <= 40 and 1 <= q <= 16, the u = 0 row
    from s = +-i is exact: rho(x)^4 = E and rho(l) = E there, in floating
    point too."""
    slopes = [(p, q) for q in range(1, 17) for p in range(-40, 41, 4)
              if math.gcd(p, q) == 1]
    assert len(slopes) == 133
    for p, q in slopes:
        rows = [row for row in solve_surgery(SurgerySlope(p, q))
                if abs(row.u) <= 1e-6]
        assert len(rows) == 1, (p, q)
        assert rows[0].u == 0 and rows[0].relation_residual == 0, (p, q)


def test_solver_residual_is_one_point_residual():
    """The solver filters on the stacked residual; surgery_residual, which
    every check re-tests a row with, is its N = 1 call and gives the same
    bits, for the rows and for every candidate."""
    assert len(SMALL_SLOPES) == 33
    slopes = [SurgerySlope(p, q) for p, q in
              SMALL_SLOPES + [(29, 6), (36, 5), (-39, 14), (1, 16)]]
    for slope in slopes:
        for row in solve_surgery(slope):
            assert row.relation_residual \
                == surgery_residual(row.point, slope)[1], slope
        s, _, t, _, _, _ = _candidates([slope])
        stacked = relation_residuals(s, t, [(slope, len(s))])
        one_point = [surgery_residual(RileyPoint(sk, tk), slope)[1]
                     for sk, tk in zip(s.tolist(), t.tolist())]
        assert stacked.tolist() == one_point, slope
    # one call on the rows of every slope, each item at its own slope,
    # in the solver's order (one run per slope) and shuffled (runs of one)
    rows = solve_surgery(slopes + [SurgerySlope(-2, -1)])
    runs = [(slope, len(list(run)))
            for slope, run in groupby(row.slope for row in rows)]
    assert len(runs) == len(slopes) + 1
    shuffled = [rows[k]
                for k in np.random.default_rng(0).permutation(len(rows))]
    runs += [(row.slope, 1) for row in shuffled]
    rows += shuffled
    s = np.array([row.point.s for row in rows])
    t = np.array([row.point.t for row in rows])
    mixed = relation_residuals(s, t, runs)
    assert mixed.tolist() == [surgery_residual(row.point, row.slope)[1]
                              for row in rows]


def test_columns_are_the_public_closed_forms():
    """Every printed column of a row is the public closed form at the
    row's (s, t), bit for bit: u, tr rho(l), lambda and the variety
    residual on one-item arrays, as the solver evaluates them on its
    stacks, and the torsion from `torsion_surgered(u)`.  One batched
    call covers 1/1, -4/3, 29/6, 1/16, 40/13 and the ten slopes of the
    verify check."""
    pairs = [(1, 1), (-4, 3), (29, 6), (1, 16), (40, 13), (1, 0), (1, 1),
             (2, 1), (3, 1), (5, 1), (1, 2), (3, 2), (5, 3), (-1, 2), (4, 1)]
    rows = solve_surgery([SurgerySlope(p, q) for p, q in pairs])
    assert len(rows) > 100
    for row in rows:
        s, t = np.array([row.point.s]), np.array([row.point.t])
        assert row.u == trace_u(s)[0], row.slope
        assert row.trace_l == trace_l(s, t)[0], row.slope
        assert row.lam == longitude_l11(s, t)[0], row.slope
        assert row.point.residual == abs(riley_poly(s, t))[0], row.slope
        if row.torsion is None:
            assert row.flags == ["degenerate"], row.slope
        else:
            assert row.torsion == torsion_surgered(row.u), row.slope


def test_runs_must_cover_the_stack():
    s, t = sample_variety_points(6, 1)
    for counts in ((5,), (4, 3)):
        with pytest.raises(ValueError, match="runs cover"):
            relation_residuals(s, t, [(SurgerySlope(1, 1), n) for n in counts])


def test_zero_exponent_residuals():
    """At 1/0 the residual is ||rho(x) - E|| and at 0/1 ||rho(l) - E||,
    bit for bit: the zero power is E exactly, and a product with E is
    the other factor."""
    minus = solve_t(2.0)[1]
    s, t = np.concatenate([[[minus.s], [minus.t]],
                           sample_variety_points(60, 5)], axis=1)
    imgs = rep_stacks(s, t)
    for slope, image in ((SurgerySlope(1, 0), imgs[X]),
                         (SurgerySlope(0, 1), word_product(LONGITUDE, imgs))):
        assert relation_residuals(s, t, [(slope, len(s))]).tolist() \
            == np.linalg.norm(image - E2, axis=(1, 2)).tolist(), slope


# the test_character_count slopes, then the tied ones
CANDIDATE_SLOPES = [(2, 5), (13, 5), (1, 8), (3, 8), (-3, 1), (3, 2), (4, 1),
                    (0, 1), (1, 0), (-14, 3)] + TIED_SLOPES


@pytest.mark.parametrize("p, q", CANDIDATE_SLOPES)
def test_stacked_candidates_match_scalar(p, q):
    """Every stacked candidate has the t and the branch that the scalar
    solve_t(s) and the nearest-l11 choice give.  Where the two branches
    meet, t comes from the branch-point rule instead, so those are
    exempt."""
    s, lam, t, branch, _, _ = _candidates([SurgerySlope(p, q)])
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


@pytest.mark.parametrize("p, q", CANDIDATE_SLOPES)
def test_on_variety_is_the_array_rule(p, q):
    """The variety rule on one point and on arrays agree exactly, item by
    item, on every candidate, and on the candidates with t moved by
    1e-10 relative, which puts many of them off the variety."""
    s, _, t, _, residual, _ = _candidates([SurgerySlope(p, q)])
    moved = t * (1 + 1e-10)
    for tt, res in ((t, residual), (moved, np.abs(riley_poly(s, moved)))):
        rule = variety_membership(s, tt, res)
        one_point = [bool(variety_membership(sk, tk, rk))
                     for sk, tk, rk in zip(s.tolist(), tt.tolist(),
                                           res.tolist())]
        assert rule.tolist() == one_point


@pytest.mark.parametrize(
    "p, q", CANDIDATE_SLOPES + [(29, 6), (36, 5), (-39, 14), (1, 16)])
def test_relation_residual_is_the_only_rejection(p, q):
    """The facts that leave the matrix residual as the one test that
    rejects a candidate on the variety: there l21 vanishes, and no
    parabolic candidate (s = +-1) meets the relation, since rho(x)^p
    rho(l)^q keeps the unipotent part p + q c, c = +-2 sqrt(-3).  The
    candidates of p/q and of -p/-q are both checked, as solve_surgery
    enumerates on one of them."""
    slope = SurgerySlope(p, q)
    for root in (slope, SurgerySlope(-p, -q)):
        s, _, t, _, residual, _ = _candidates([root])
        mat_res = relation_residuals(s, t, [(slope, len(s))])
        for sk, tk, rk, mk in zip(s.tolist(), t.tolist(), residual.tolist(),
                                  mat_res.tolist()):
            if variety_membership(sk, tk, rk):
                word = longitude_matrix_word(sk, tk)
                scale = max(1.0, float(np.max(np.abs(word))))
                assert abs(word[1, 0]) <= 1e-8 * scale, (p, q, sk)
            if abs(sk * sk - 1) <= 1e-6:
                assert not mk <= RELATION_TOL, (p, q, sk)


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
        assert sorted(moved, key=lambda row: _row_key(
            row.u, row.point.branch)) == moved


def _csv_cells(csv: str) -> list[list]:
    """The rows of a CSV table as lists of cells in its column order:
    each float as `float.hex` (exact, -0.0 apart from 0.0), None for an
    empty torsion cell, the branch, and the flags as a list."""
    rows = []
    for line in csv.splitlines()[1:]:
        *cells, flags = line.split(",")
        rows.append([cell if col == 4 else None if cell == ""
                     else float(cell).hex() for col, cell in enumerate(cells)]
                    + [flags.split(";") if flags else []])
    return rows


def _json_cells(text: str) -> list[list]:
    """The rows of a JSON table as `_csv_cells` gives a CSV table's."""
    rows = []
    for row in json.loads(text):
        pt, tau = row["point"], row["torsion"] or {"re": None, "im": None}
        cells = [pt["s"]["re"], pt["s"]["im"], pt["t"]["re"], pt["t"]["im"],
                 pt["branch"], row["u"]["re"], row["u"]["im"],
                 row["trace_l"]["re"], row["trace_l"]["im"],
                 row["lambda"]["re"], row["lambda"]["im"], tau["re"],
                 tau["im"], pt["residual"], row["relation_residual"]]
        rows.append([cell.hex() if isinstance(cell, float) else cell
                     for cell in cells] + [row["flags"]])
    return rows


def test_slope_sign_symmetry():
    """p/q and -p/-q are one slope, stored with q >= 0 and as 1/0 when
    q = 0, so the two spellings give one table, bit for bit, on every
    slope of the grid |p| <= 40, 1 <= q <= 16.  On that grid the JSON
    table is what json's own encoder prints for it, and the CSV and JSON
    tables give the same cells row by row.

    The grid's totals are pinned as they stand: 24 293 rows of the
    28 227 characters N(p/q), and 364 short slopes.  The absolute
    RELATION_TOL sits at the rounding edge (the FOUND line on it in
    CHANGES.md): changing only how the residual's products round moved
    the rows of 137 grid slopes, 24 176 -> 24 293 rows and 367 -> 364
    short slopes.  A relative gate is meant to make every slope complete,
    and then updates these totals on purpose."""
    assert SurgerySlope(1, -2) == SurgerySlope(-1, 2)
    assert (SurgerySlope(-1, 0).p, SurgerySlope(-1, 0).q) == (1, 0)
    assert (SurgerySlope(0, -1).p, SurgerySlope(0, -1).q) == (0, 1)
    grid = [(p, q) for q in range(1, 17) for p in range(-40, 41)
            if math.gcd(abs(p), q) == 1]
    assert len(grid) == 791
    rows = solve_surgery([SurgerySlope(p, q) for p, q in grid])
    twins = solve_surgery([SurgerySlope(-p, -q) for p, q in grid])
    csv = table_to_csv(rows)
    assert csv == table_to_csv(twins)
    # the JSON tables are compared row by row, so that a failure names
    # the first row that differs (pytest's diff of two whole one-line
    # tables runs for minutes)
    json_rows = [sol.to_json_row() for sol in rows]
    assert json_rows == [sol.to_json_row() for sol in twins]
    # the rows are written from a template: json's own encoder is the
    # reference for their bytes, and for the table's
    text = table_to_json(rows)
    data = json.loads(text)
    assert json_rows == [json.dumps(row) for row in data]
    assert table_to_json(rows[:3]) == json.dumps(data[:3])
    # the CSV and JSON rows are two hand-written formats of one row
    assert _csv_cells(csv) == _json_cells(text)
    counts = Counter((sol.slope.p, sol.slope.q) for sol in rows)
    expected = {(p, q): _expected_count(p, q) for p, q in grid}
    assert sum(expected.values()) == 28227
    assert len(rows) == 24293
    assert sum(counts[pq] < n for pq, n in expected.items()) == 364


def test_determinism():
    a = solve_surgery(SurgerySlope(3, 1))
    b = solve_surgery(SurgerySlope(3, 1))
    assert [sol.to_csv_row() for sol in a] == [sol.to_csv_row() for sol in b]


def test_sorted_by_u():
    sols = solve_surgery(SurgerySlope(1, 1))
    keys = [(abs(s.u), np.angle(s.u)) for s in sols]
    assert keys == sorted(keys)


def test_table_formats():
    """Both tables of 1/1, of 1/0 (no row), of 4/1 (one degenerate row)
    and of 0/1 (three): the CSV's shape, and every field of each JSON
    row, keys in order, equal to the row's attribute."""
    tables = {}
    for p, q in [(1, 1), (1, 0), (4, 1), (0, 1)]:
        sols = solve_surgery(SurgerySlope(p, q))
        csv = table_to_csv(sols)
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(sols) + 1
        assert all(len(line.split(",")) == len(CSV_HEADER.split(","))
                   for line in lines[1:])
        data = json.loads(table_to_json(sols))
        assert len(data) == len(sols)
        for row, sol in zip(data, sols):
            assert list(row) == ["point", "u", "trace_l", "lambda",
                                 "relation_residual", "torsion", "flags"]
            pt = row["point"]
            assert list(pt) == ["s", "t", "branch", "residual"]
            assert complex(pt["s"]["re"], pt["s"]["im"]) == sol.point.s
            assert complex(pt["t"]["re"], pt["t"]["im"]) == sol.point.t
            assert pt["branch"] == sol.point.branch
            assert pt["residual"] == sol.point.residual
            for key, value in [("u", sol.u), ("trace_l", sol.trace_l),
                               ("lambda", sol.lam)]:
                assert list(row[key]) == ["re", "im"]
                assert complex(row[key]["re"], row[key]["im"]) == value
            assert row["relation_residual"] == sol.relation_residual
            assert row["torsion"] == (
                None if sol.torsion is None else
                {"re": sol.torsion.real, "im": sol.torsion.imag})
            assert row["flags"] == sol.flags
        tables[p, q] = data
    assert tables[1, 0] == []
    assert len(tables[4, 1]) == 1
    assert tables[4, 1][0]["torsion"] is None
    assert tables[4, 1][0]["flags"] == ["degenerate"]
    assert len(tables[0, 1]) == 3


def test_empty_table_csv():
    assert table_to_csv([]) == CSV_HEADER + "\n"

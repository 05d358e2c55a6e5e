import re

import numpy as np
import pytest

from fig8torsion.errors import DegenerateU, NotAcyclic
from fig8torsion.riley import (RileyPoint, riley_poly, solve_t, trace_u,
                               variety_membership)
from fig8torsion.formulas import (COMPARE_TOL, TorsionReport, degenerate,
                                 full_report,
                                 torsion_exterior_closed,
                                 torsion_exterior_oracle,
                                 torsion_solid_torus_closed,
                                 torsion_solid_torus_from_trace,
                                 torsion_solid_torus_oracle, torsion_surgered,
                                 torus_torsion_oracle)
from fig8torsion.verify import random_commuting_pairs, sample_variety_points


# the reducible point s = 1, t = 0, off the variety
REDUCIBLE = RileyPoint(1 + 0j, 0j, residual=abs(riley_poly(1 + 0j, 0j)))


def test_exterior_closed_values():
    assert torsion_exterior_closed(2) == -2
    assert torsion_exterior_closed(1) == 0
    assert torsion_exterior_closed(2.5) == -3


def test_solid_closed_values():
    assert abs(torsion_solid_torus_closed(2) - 0.25) < 1e-15
    assert abs(torsion_solid_torus_closed(1) - 0.25) < 1e-15
    with pytest.raises(DegenerateU):
        torsion_solid_torus_closed(np.sqrt(5))
    with pytest.raises(DegenerateU):
        torsion_solid_torus_closed(0.0)


def test_surgered_values():
    assert abs(torsion_surgered(2) - (-0.5)) < 1e-15
    assert abs(torsion_surgered(1)) < 1e-15
    assert abs(torsion_surgered(2.5) - 0.384) < 1e-15
    with pytest.raises(DegenerateU):
        torsion_surgered(np.sqrt(5))


def test_closed_forms_on_arrays_are_the_scalar_calls():
    # numpy's complex arithmetic rounds apart from Python's in the last
    # bits, which the cancellation in u^2 - 5 can lift to ~1e-14
    rng = np.random.default_rng(2)
    u = rng.normal(scale=2, size=(200, 2)).view(complex)[:, 0]
    assert not degenerate(u).any()
    for form in (torsion_exterior_closed, torsion_solid_torus_closed,
                 torsion_surgered):
        vals = form(u)
        assert vals.shape == u.shape
        for k, uk in enumerate(u.tolist()):
            one = form(uk)
            assert abs(vals[k] - one) <= 1e-13 * abs(one), form


@pytest.mark.parametrize("bad", [0.0, np.sqrt(5), -np.sqrt(5) + 1e-12j])
def test_one_degenerate_item_raises(bad):
    u = np.array([2.5, 1.0 + 1.0j, bad, 3.0])
    assert degenerate(u).tolist() == [False, False, True, False]
    size = f"{abs(bad * bad * (bad * bad - 5)):.3e}"
    for form in (torsion_solid_torus_closed, torsion_surgered):
        with pytest.raises(DegenerateU, match=re.escape(f"= {size}")):
            form(u)
    assert torsion_surgered(np.delete(u, 2)).shape == (3,)


def test_product_identity_random():
    rng = np.random.default_rng(0)
    done = 0
    while done < 1000:
        u = complex(rng.normal(scale=2), rng.normal(scale=2))
        if abs(u * u * (u * u - 5)) <= 1e-6:
            continue
        lhs = torsion_surgered(u)
        rhs = torsion_exterior_closed(u) * torsion_solid_torus_closed(u)
        assert abs(lhs - rhs) <= 1e-12 * max(1, abs(lhs))
        done += 1


def test_exterior_oracle_fixtures():
    # s = 2: u = 2.5, closed form -3
    for pt in solve_t(2.0):
        val = torsion_exterior_oracle(pt.s, pt.t)
        assert val.sign_ambiguous
        assert abs(abs(val.value) - 3.0) < 1e-10
    # s = 1 geometric point: u = 2, closed form -2
    plus = solve_t(1.0)[0]
    assert abs(abs(torsion_exterior_oracle(plus.s, plus.t).value) - 2) < 1e-10


def test_exterior_oracle_random():
    for s, t in zip(*sample_variety_points(200, seed=42)):
        u = trace_u(s)
        val = torsion_exterior_oracle(s, t)
        closed = torsion_exterior_closed(u)
        assert abs(abs(val.value) - abs(closed)) \
            <= 1e-8 * max(1.0, abs(closed))


def test_exterior_oracle_nonacyclic_at_u_one():
    # u = 1 <=> s primitive 6th root of unity; tau(exterior) = 0 there
    s = complex(0.5, np.sqrt(3) / 2)
    assert abs(trace_u(s) - 1) < 1e-12
    for pt in solve_t(s):
        with pytest.raises(NotAcyclic):
            torsion_exterior_oracle(pt.s, pt.t)


@pytest.mark.parametrize("branch, flag", [("+", "fail"), ("-", "pass")])
def test_small_s_exterior_is_acyclic(branch, flag):
    """At s = 0.05 (u = 20.05) both exterior complexes have their forced
    ranks, so both are acyclic and carry an oracle value.  On branch +
    cancellation in the Fox entries costs ~2e-6 relative, and the report
    says so through its closed-form comparison, not by calling the point
    non-acyclic."""
    pt = solve_t(0.05)[0 if branch == "+" else 1]
    assert pt.branch == branch
    val = torsion_exterior_oracle(pt.s, pt.t)
    assert abs(abs(val.value) - 38.1) <= 1e-5 * 38.1
    rep = full_report(pt)
    assert rep.flags["exterior_oracle_abs"] == flag
    assert not [a for a in rep.annotations if a.endswith("non-acyclic")]
    assert rep.tau_surgered == torsion_surgered(trace_u(0.05))


def test_solid_trace_check_tolerates_rounding_near_u2_five():
    """Near u^2 = 5 the two forms of 1/(2 - tr rho(l)) each divide by a
    cancelled difference; at this point |u^2 (u^2 - 5)| ~ 8e-7 and they
    differ by ~1.2e-8 relative, within the rounding bound of the check
    and over COMPARE_TOL alone."""
    pt = solve_t(complex(-0.6180339683749314, 9.122529801256108e-09))[1]
    rep = full_report(pt)
    gap = abs(rep.tau_solid_trace - rep.tau_solid_closed)
    assert gap > COMPARE_TOL * abs(rep.tau_solid_closed)
    assert "fail" not in rep.flags.values(), rep.flags


def test_exterior_oracle_off_variety_point_raises():
    """One point off the variety in a stack raises, naming its
    residual."""
    good, bad = solve_t(2.0)[0], REDUCIBLE
    assert not variety_membership(bad.s, bad.t, bad.residual)
    with pytest.raises(NotAcyclic, match=re.escape(f"{bad.residual:.3e}")):
        torsion_exterior_oracle(np.array([good.s, bad.s, good.s]),
                                np.array([good.t, bad.t, good.t]))


def test_solid_trace_fixture_and_errors():
    plus = solve_t(1.0)[0]
    assert abs(torsion_solid_torus_from_trace(plus.s, plus.t) - 0.25) < 1e-12
    with pytest.raises(NotAcyclic):
        torsion_solid_torus_from_trace(REDUCIBLE.s, REDUCIBLE.t)


def test_solid_torus_forms_on_arrays_are_the_point_calls():
    """The trace form and the circle-complex oracle take arrays (s, t):
    item k is the call on that point alone, to rounding.  An item whose
    longitude image is E (t = 0) masks only itself in the oracle, and
    the trace form raises, naming its |2 - tr rho(l)|."""
    s, t = sample_variety_points(40, seed=46)
    trace_form = torsion_solid_torus_from_trace(s, t)
    oracle = torsion_solid_torus_oracle(s, t)
    assert oracle.acyclic.all()
    for k, (sk, tk) in enumerate(zip(s.tolist(), t.tolist())):
        one = torsion_solid_torus_from_trace(sk, tk)
        assert abs(trace_form[k] - one) <= 1e-12 * max(1, abs(one)), k
        one = torsion_solid_torus_oracle(sk, tk).value
        assert abs(oracle.value[k] - one) <= 1e-12 * max(1, abs(one)), k
    t[3] = 0
    assert (torsion_solid_torus_oracle(s, t).acyclic.tolist()
            == [k != 3 for k in range(40)])
    with pytest.raises(NotAcyclic, match=re.escape("| = 0.000e+00")):
        torsion_solid_torus_from_trace(s, t)
    with pytest.raises(NotAcyclic):
        torsion_solid_torus_oracle(s[3], t[3])


def test_solid_oracle_agreement_random():
    for pt in map(RileyPoint, *sample_variety_points(100, seed=43)):
        try:
            trace_form = torsion_solid_torus_from_trace(pt.s, pt.t)
        except NotAcyclic:
            continue
        oracle = torsion_solid_torus_oracle(pt.s, pt.t)
        assert abs(oracle.value - trace_form) <= 1e-8 * max(1, abs(trace_form))


def test_solid_trace_vs_u_form_random():
    for pt in map(RileyPoint, *sample_variety_points(100, seed=44)):
        u = trace_u(pt.s)
        try:
            closed = torsion_solid_torus_closed(u)
        except DegenerateU:
            continue
        trace_form = torsion_solid_torus_from_trace(pt.s, pt.t)
        assert abs(closed - trace_form) <= 1e-8 * max(1, abs(closed))


def test_torus_oracle():
    rng = np.random.default_rng(45)
    for _ in range(100):
        imga, imgb = random_commuting_pairs(rng, 1)
        try:
            val = torus_torsion_oracle(imga[0], imgb[0])
        except NotAcyclic:
            continue
        assert abs(abs(val.value) - 1.0) <= 1e-8


def test_full_report_geometric():
    rep = full_report(solve_t(1.0)[0])
    assert rep.all_pass is True
    assert abs(rep.tau_surgered - (-0.5)) < 1e-10


def test_full_report_s2():
    rep = full_report(solve_t(2.0)[0])
    assert rep.all_pass is True
    assert abs(rep.tau_surgered - 0.384) < 1e-10


def test_all_pass_is_false_without_flags_or_with_one_not_pass():
    assert full_report(REDUCIBLE).all_pass is False
    assert TorsionReport(u=2.5).all_pass is False


def test_full_report_reducible():
    rep = full_report(REDUCIBLE)
    assert "non-acyclic" in rep.annotations
    # u = 2 is not degenerate, but the exterior oracle has no value off
    # the variety, so there is no tau(M) and no product identity to check
    assert rep.tau_surgered is None
    assert rep.flags["product_identity"] == "skipped"


def test_full_report_off_variety_point():
    """(2, 1) is not a homomorphism (|R12| = 1.5); the oracle computes
    that itself instead of trusting the point's stored residual of 0."""
    rep = full_report(RileyPoint(2.0, 1.0))
    assert rep.tau_exterior_oracle is None
    assert "exterior-non-acyclic" in rep.annotations
    assert rep.tau_surgered is None


def test_full_report_degenerate():
    # u^2 = 5 at s solving s + 1/s = sqrt(5), i.e. the golden ratio
    s = (np.sqrt(5) + 1) / 2
    rep = full_report(solve_t(s)[0])
    assert "degenerate" in rep.annotations
    assert rep.tau_surgered is None


def test_report_serialization():
    rep = full_report(solve_t(2.0)[0])
    data = rep.to_json()
    assert data["u"] == {"re": 2.5, "im": 0.0}
    assert data["tau_exterior_oracle"]["sign_ambiguous"] is True
    row = rep.to_csv_row()
    from fig8torsion.formulas import REPORT_CSV_HEADER
    assert len(row.split(",")) == len(REPORT_CSV_HEADER.split(","))

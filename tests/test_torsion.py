import re

import numpy as np
import pytest

from fig8torsion.errors import DegenerateU, NotAcyclic
from fig8torsion.riley import make_point, solve_t, trace_u
from fig8torsion.formulas import (TorsionReport, degenerate, full_report,
                                 torsion_exterior_closed,
                                 torsion_exterior_oracle,
                                 torsion_solid_torus_closed,
                                 torsion_solid_torus_from_trace,
                                 torsion_solid_torus_oracle, torsion_surgered,
                                 torus_torsion_oracle)
from fig8torsion.verify import random_commuting_pair, sample_variety_points


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
        val = torsion_exterior_oracle(pt)
        assert val.sign_ambiguous
        assert abs(abs(val.value) - 3.0) < 1e-10
    # s = 1 geometric point: u = 2, closed form -2
    assert abs(abs(torsion_exterior_oracle(solve_t(1.0)[0]).value) - 2) < 1e-10


def test_exterior_oracle_random():
    for pt in sample_variety_points(200, seed=42):
        u = trace_u(pt.s)
        val = torsion_exterior_oracle(pt)
        closed = torsion_exterior_closed(u)
        assert abs(abs(val.value) - abs(closed)) \
            <= 1e-8 * max(1.0, abs(closed))


def test_exterior_oracle_nonacyclic_at_u_one():
    # u = 1 <=> s primitive 6th root of unity; tau(exterior) = 0 there
    s = complex(0.5, np.sqrt(3) / 2)
    assert abs(trace_u(s) - 1) < 1e-12
    for pt in solve_t(s):
        with pytest.raises(NotAcyclic):
            torsion_exterior_oracle(pt)


def test_exterior_oracle_off_variety_point_raises():
    """One point off the variety in a sequence raises, naming its
    residual."""
    good, bad = solve_t(2.0)[0], make_point(1.0, 0.0)
    assert not bad.on_variety()
    with pytest.raises(NotAcyclic, match=re.escape(f"{bad.residual:.3e}")):
        torsion_exterior_oracle([good, bad, good])


def test_solid_trace_fixture_and_errors():
    assert abs(torsion_solid_torus_from_trace(solve_t(1.0)[0]) - 0.25) < 1e-12
    with pytest.raises(NotAcyclic):
        torsion_solid_torus_from_trace(make_point(1.0, 0.0))


def test_solid_oracle_agreement_random():
    for pt in sample_variety_points(100, seed=43):
        try:
            trace_form = torsion_solid_torus_from_trace(pt)
        except NotAcyclic:
            continue
        oracle = torsion_solid_torus_oracle(pt)
        assert abs(oracle.value - trace_form) <= 1e-8 * max(1, abs(trace_form))


def test_solid_trace_vs_u_form_random():
    for pt in sample_variety_points(100, seed=44):
        u = trace_u(pt.s)
        try:
            closed = torsion_solid_torus_closed(u)
        except DegenerateU:
            continue
        trace_form = torsion_solid_torus_from_trace(pt)
        assert abs(closed - trace_form) <= 1e-8 * max(1, abs(closed))


def test_torus_oracle():
    rng = np.random.default_rng(45)
    for _ in range(100):
        imga, imgb = random_commuting_pair(rng)
        try:
            val = torus_torsion_oracle(imga, imgb)
        except NotAcyclic:
            continue
        assert abs(abs(val.value) - 1.0) <= 1e-8


def test_full_report_geometric():
    rep = full_report(solve_t(1.0)[0])
    assert rep.all_pass is True
    assert abs(rep.tau_surgered - (-0.5)) < 1e-10
    assert abs(rep.tau_surgered_reported - (-0.5)) < 1e-10


def test_full_report_s2():
    rep = full_report(solve_t(2.0)[0])
    assert rep.all_pass is True
    assert abs(rep.tau_surgered - 0.384) < 1e-10


def test_all_pass_is_false_without_flags_or_with_one_not_pass():
    assert full_report(make_point(1.0, 0.0)).all_pass is False
    assert TorsionReport(u=2.5).all_pass is False


def test_full_report_reducible():
    rep = full_report(make_point(1.0, 0.0))
    assert "non-acyclic" in rep.annotations
    assert rep.tau_surgered_reported == 0


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

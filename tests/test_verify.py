"""The stacked chain-torsion path: every item of an (N, ., .) call
equals the call on that item alone, non-acyclic items are masked, and
the stacked verify checks agree with per-point and per-fixture
reference loops.

Items agree to STACK_RTOL, not bit for bit: numpy's vectorized complex
arithmetic on a long array rounds differently in the last bits from its
loop over a one-item array.  The exterior oracle at one point and at
its stack of one agree bit for bit."""

import cmath
import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from fig8torsion import chain
from fig8torsion.chain import (ChainComplex, is_acyclic, torsion,
                               torsion_with_basis_perturbation)
from fig8torsion.errors import DimensionMismatch, NotAcyclic, SingularMatrix
from fig8torsion.formulas import (COMPARE_TOL, full_report,
                                  presentation_complex,
                                  torsion_exterior_closed,
                                  torsion_exterior_oracle,
                                  torsion_solid_torus_closed,
                                  torsion_solid_torus_from_trace,
                                  torus_torsion_oracle)
from fig8torsion.linalg import E2, STACK_KERNEL_MIN_ITEMS, mat2_inverse
from fig8torsion.riley import (LONGITUDE, RELATOR, RileyPoint, longitude_l11,
                               longitude_matrix_word, rep_stacks, riley_poly,
                               solve_t, trace_l, trace_u, variety_membership)
from fig8torsion.formulas import torsion_surgered
from fig8torsion.surgery import SurgerySlope, solve_surgery, surgery_residual
from fig8torsion.verify import (check_basis_independence,
                                check_exterior_oracle, check_longitude_lemma,
                                check_product_identity, check_surgery_solver,
                                check_torus_oracle, check_trace_identity,
                                random_acyclic_stacks,
                                random_commuting_pairs, run_all,
                                sample_variety_points)
from fig8torsion import formulas, surgery, verify
from fig8torsion.words import X, Y, fox_jacobian, parse_word
from complex_reference import random_acyclic_complex

STACK_RTOL = 1e-14
REFERENCE_RTOL = 1e-10
# a perturbed torsion multiplies and divides determinants of random
# bases, so its stacked and single calls round apart a little more
PERTURBED_RTOL = 1e-12
# u = 1 at s = e^{i pi/3}; written as in test_torsion, where the oracle
# is known to raise at this exact float
S_U_ONE = complex(0.5, math.sqrt(3) / 2)


def close(a, b, rtol=STACK_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def close_matrix(a, b, rtol=STACK_RTOL):
    return np.max(np.abs(a - b)) <= rtol * max(1.0, np.max(np.abs(b)))


@pytest.fixture(scope="module")
def points():
    # (s, t) as the rows of a (2, 41) array; the s = 1 fixture, where
    # det(rho(x) - E) = 0, rides along
    plus = solve_t(1.0)[0]
    return np.concatenate([[[plus.s], [plus.t]],
                           sample_variety_points(40, seed=3)], axis=1)


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(8)
    return [(a[0], b[0]) for a, b in (random_commuting_pairs(rng, 1)
                                      for _ in range(30))]


def exterior_complexes(s, t):
    imgs = rep_stacks(s, t)
    return presentation_complex(imgs[X], imgs[Y],
                                *fox_jacobian(RELATOR, imgs[X], imgs[Y]))


def test_stacked_torsion_matches_items(points):
    n = points.shape[1]
    stack = exterior_complexes(*points)
    val = torsion(stack)
    assert stack.stacked and stack.size == n
    assert val.acyclic.shape == (n,) and val.acyclic.all()
    assert is_acyclic(stack).all()
    for k, (d1, d2) in enumerate(zip(*stack.boundaries)):
        one = ChainComplex(dims=stack.dims, boundaries=(d1, d2))
        assert is_acyclic(one) is True
        assert close(val.value[k], torsion(one).value)


def test_stacked_exterior_oracle_matches_items(points):
    val = torsion_exterior_oracle(*points)
    assert val.sign_ambiguous and val.acyclic.all()
    for k, (s, t) in enumerate(points.T):
        assert close(val.value[k], torsion_exterior_oracle(s, t).value)


def test_one_point_oracle_has_the_bits_of_the_stack_of_one(monkeypatch,
                                                          points):
    """One point takes its own kernel, which builds no ChainComplex when
    d_1 d_2 = 0 holds; its value is the stack of one's, bit for bit."""
    def no_complex(*args, **kwargs):
        raise AssertionError("ChainComplex built")

    for s, t in points.T:
        stacked = torsion_exterior_oracle(np.array([s]), np.array([t]))
        with monkeypatch.context() as m:
            m.setattr(formulas, "ChainComplex", no_complex)
            one = torsion_exterior_oracle(s, t)
        assert one.value == stacked.value[0] and type(one.value) is complex
        assert one.sign_ambiguous and one.acyclic is True


def test_one_point_oracle_fails_where_the_stack_of_one_does():
    """Masked in the stack of one (u = 1) is NotAcyclic at the point; off
    the variety (t = 0), at a broken d o d = 0 (s = 100) and at an
    overflow in the Fox pass (s = 1e35 + 0.3i) both calls raise the same
    error with the same message."""
    bad = solve_t(S_U_ONE)[0]
    assert not torsion_exterior_oracle(np.array([bad.s]),
                                       np.array([bad.t])).acyclic[0]
    with pytest.raises(NotAcyclic, match="^not acyclic$"):
        torsion_exterior_oracle(bad.s, bad.t)
    for s, t, error in ((2.0, 0.0, NotAcyclic),
                        (100.0, solve_t(100.0)[0].t, DimensionMismatch),
                        (1e35 + 0.3j, solve_t(1e35 + 0.3j)[0].t,
                         OverflowError)):
        with pytest.raises(error) as stacked:
            torsion_exterior_oracle(np.array([s]), np.array([t]))
        with pytest.raises(error) as one:
            torsion_exterior_oracle(s, t)
        assert type(one.value) is type(stacked.value)
        assert str(one.value) == str(stacked.value)


def test_stacked_torus_oracle_matches_items(pairs):
    val = torus_torsion_oracle(np.array([a for a, _ in pairs]),
                               np.array([b for _, b in pairs]))
    assert val.sign_ambiguous and val.acyclic.all()
    for k, (a, b) in enumerate(pairs):
        assert close(val.value[k], torus_torsion_oracle(a, b).value)


def test_exterior_stack_above_the_jacobi_crossover_matches_items():
    """The exterior check's 203 points as one stack, whose 2 x 4 and
    4 x 2 boundaries take `svd`'s Jacobi kernel, against each point
    alone, which takes LAPACK.  Two SVD algorithms, each backward stable,
    put the torsions within a few eps * kappa(d_1) kappa(d_2) of each
    other; that product stays below 1e4 for |s| in [0.3, 3], so the
    bound is REFERENCE_RTOL, that of a different route, not STACK_RTOL."""
    fixed = [solve_t(1.0)[0], *solve_t(2.0)]
    s, t = np.concatenate([[[p.s for p in fixed], [p.t for p in fixed]],
                           sample_variety_points(200, 5)], axis=1)
    assert len(s) >= STACK_KERNEL_MIN_ITEMS
    cx = exterior_complexes(s, t)
    kappa = np.ones(len(s))
    for d in cx.boundaries:
        sv = np.linalg.svd(d, compute_uv=False)
        kappa *= sv[:, 0] / sv[:, 1]
    assert kappa.max() < 1e4
    val = torsion_exterior_oracle(s, t)
    assert val.acyclic.all()
    for k in range(len(s)):
        assert close(val.value[k], torsion_exterior_oracle(s[k], t[k]).value,
                     REFERENCE_RTOL)


def test_stacked_fox_jacobian_and_inverse_match_items(pairs):
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    w = parse_word("xyXYxxY")
    phix, phiy = fox_jacobian(w, a, b)
    inv = mat2_inverse(a)
    assert phix.shape == phiy.shape == inv.shape == a.shape
    for k in range(len(pairs)):
        one_x, one_y = fox_jacobian(w, a[k], b[k])
        assert close_matrix(phix[k], one_x) and close_matrix(phiy[k], one_y)
        assert close_matrix(inv[k], mat2_inverse(a[k]))


def test_u_one_point_masks_only_its_item(points):
    bad = solve_t(S_U_ONE)[0]
    assert abs(trace_u(bad.s) - 1) < 1e-12
    stack = np.concatenate([points[:, :5], [[bad.s], [bad.t]],
                            points[:, 5:10]], axis=1)
    val = torsion_exterior_oracle(*stack)
    assert np.flatnonzero(~val.acyclic).tolist() == [5]
    assert np.isnan(val.value[5])
    assert np.isfinite(val.value[val.acyclic]).all()
    with pytest.raises(NotAcyclic):
        torsion_exterior_oracle(bad.s, bad.t)


def test_non_acyclic_torus_pair_masks_only_its_item(pairs):
    a = np.array([x for x, _ in pairs[:4]] + [E2])
    b = np.array([y for _, y in pairs[:4]] + [E2])
    val = torus_torsion_oracle(a, b)
    assert val.acyclic.tolist() == [True] * 4 + [False]
    with pytest.raises(NotAcyclic):
        torus_torsion_oracle(E2, E2)


def test_one_singular_item_raises(pairs):
    a = np.array([x for x, _ in pairs[:4]]
                 + [np.array([[1, 2], [2, 4]], dtype=complex)])
    b = np.array([y for _, y in pairs[:5]])
    with pytest.raises(SingularMatrix):
        mat2_inverse(a)
    with pytest.raises(SingularMatrix):
        torus_torsion_oracle(a, b)


def test_euler_characteristic_raises_before_any_svd(monkeypatch):
    def no_svd(m):
        raise AssertionError("svd called")

    monkeypatch.setattr(chain, "svd", no_svd)
    monkeypatch.setattr(chain, "rank", no_svd)
    cx = ChainComplex(dims=(1, 2),
                      boundaries=(np.array([[1.0, 2.0]], dtype=complex),))
    with pytest.raises(NotAcyclic, match="Euler"):
        torsion(cx)
    assert is_acyclic(cx) is False
    stack = ChainComplex(dims=(1, 2), boundaries=(np.ones((3, 1, 2)),))
    with pytest.raises(NotAcyclic, match="Euler"):
        torsion(stack)
    assert is_acyclic(stack).tolist() == [False] * 3


def test_zero_map_gets_no_svd(lapack_svds, points):
    # one SVD per boundary, d_1 (2 x 4) and d_2 (4 x 2), on the 41-point
    # stack and on one point; the zero map C_3 -> C_2 has none
    torsion(exterior_complexes(*points))
    torsion_exterior_oracle(*points[:, 0])
    n = points.shape[1]
    assert n < STACK_KERNEL_MIN_ITEMS
    assert lapack_svds == [(n, 2, 4), (n, 4, 2), (2, 4), (4, 2)]


def test_redraws_are_counted(monkeypatch):
    """The product check counts the u it redraws.  The torus check draws
    its pairs once: a pair its oracle masks, as a trivial one injected
    past the draw rule, fails it and is counted as not acyclic."""
    draw = random_commuting_pairs
    rounds = []

    def every_third_trivial(rng, n):
        # pairs 3, 6 and 9 of the one draw are (E2, E2)
        rounds.append(n)
        imga, imgb = draw(rng, n)
        imga[2::3] = imgb[2::3] = E2
        return imga, imgb

    monkeypatch.setattr(verify, "random_commuting_pairs", every_third_trivial)
    res = check_torus_oracle(10, seed=4)
    assert not res.passed
    assert rounds == [10]
    assert res.detail == "10 commuting pairs, 3 not acyclic"
    monkeypatch.undo()
    res = check_torus_oracle(10, seed=4)
    assert res.passed and res.detail == "10 commuting pairs, 0 not acyclic"
    assert (check_product_identity(50, seed=1).detail
            == "50 random u, 0 redrawn")


def test_degenerate_u_are_redrawn(monkeypatch):
    # u = 0 and u = sqrt(5) put in the first round of the product draw
    default_rng = np.random.default_rng

    class Injecting:
        def __init__(self, seed):
            self.rng, self.rounds = default_rng(seed), 0

        def normal(self, scale, size):
            z = self.rng.normal(scale=scale, size=size)
            if self.rounds == 0:
                z[3] = 0.0, 0.0
                z[7] = math.sqrt(5), 0.0
            self.rounds += 1
            return z

    monkeypatch.setattr(verify.np.random, "default_rng", Injecting)
    res = check_product_identity(50, seed=1)
    assert res.passed
    assert res.detail == "50 random u, 2 redrawn"


def test_commuting_pairs_are_the_one_pair_calls():
    """One call with n is n calls with 1 on the same stream, bit for bit:
    every attempt reads the same 12 normals, accepted or not.  (Seed 8
    rejects its 16th attempt, so the run holds a redraw.)"""
    imga, imgb = random_commuting_pairs(np.random.default_rng(8), 60)
    assert imga.shape == imgb.shape == (60, 2, 2)
    rng = np.random.default_rng(8)
    for k in range(60):
        a, b = random_commuting_pairs(rng, 1)
        assert a[0].tobytes() == imga[k].tobytes(), k
        assert b[0].tobytes() == imgb[k].tobytes(), k
    # the pairs commute and are unimodular
    assert close_matrix(imga @ imgb, imgb @ imga, 1e-12)
    assert np.allclose(np.linalg.det(imga), 1) and np.allclose(
        np.linalg.det(imgb), 1)


def reference_variety_points(n, seed):
    """The per-point loop that the stacked draw replaced."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        r = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        theta = rng.uniform(0.0, 2 * math.pi)
        s = r * cmath.exp(1j * theta)
        plus, minus = solve_t(s)
        pts.append(plus if len(pts) % 2 == 0 else minus)
    return pts


@pytest.mark.parametrize("seed", [0, 3, 20240823])
def test_variety_samples_match_reference_loop(seed):
    """The same points and branches; np.exp and math.exp may round apart
    in the last bit, so s agrees to 1e-15 and t, which the quadratic
    passes s's rounding on to, to 1e-14."""
    s, t = sample_variety_points(200, seed)
    ref = reference_variety_points(200, seed)
    # the sampler takes t from the "+" branch at even k, "-" at odd k
    assert [q.branch for q in ref] == ["+", "-"] * 100
    for sk, tk, q in zip(s, t, ref):
        assert abs(sk - q.s) <= 1e-15 * abs(q.s)
        assert close(tk, q.t, 1e-14)
    assert variety_membership(s, t, np.abs(riley_poly(s, t))).all()


def test_sampled_checks_hold_near_s_one():
    """The sampler keeps points near the parabolic s = 1 (u = 2), so the
    three sampled checks must hold there: 400 points with |s - 1|
    log-uniform in [1e-12, 0.03], branches alternating "+", "-"."""
    rng = np.random.default_rng(7)
    dist = np.exp(rng.uniform(math.log(1e-12), math.log(0.03), 400))
    s = 1 + dist * np.exp(2j * math.pi * rng.uniform(size=400))
    t = np.where(np.arange(400) % 2 == 0, *verify._t_branches(s * s))
    for check in (check_exterior_oracle, check_trace_identity,
                  check_longitude_lemma):
        res = check(s, t)
        assert res.passed, res.line()


def test_draw_call_counts(monkeypatch):
    calls = {"branches": 0, "draws": 0, "oracle": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(verify, "_t_branches",
                        counting("branches", verify._t_branches))
    monkeypatch.setattr(verify, "random_commuting_pairs",
                        counting("draws", random_commuting_pairs))
    monkeypatch.setattr(verify, "torus_torsion_oracle",
                        counting("oracle", torus_torsion_oracle))
    s, t = sample_variety_points(200, seed=5)
    assert s.shape == t.shape == (200,)
    assert calls["branches"] == 1
    res = check_torus_oracle(100, seed=6)
    assert res.detail.endswith(", 0 not acyclic")
    assert calls["draws"] == calls["oracle"] == 1


def reference_checks(samples, seed):
    """The per-point loops that the stacked checks replaced: the passed
    flag of each sampled check, and the per-point values."""
    points = list(map(RileyPoint, *sample_variety_points(samples, seed)))
    points = [solve_t(1.0)[0], solve_t(2.0)[0], solve_t(2.0)[1]] + points
    ext, worst = [], 0.0
    for pt in points:
        val = torsion_exterior_oracle(pt.s, pt.t).value
        ext.append(val)
        closed = torsion_exterior_closed(trace_u(pt.s))
        worst = max(worst, abs(abs(val) - abs(closed)) / max(1.0, abs(val),
                                                              abs(closed)))
    passed = {"exterior oracle |tau| vs closed form": worst <= 1e-8}
    trace, worst = [], 0.0
    for pt in points:
        lhs = torsion_solid_torus_from_trace(pt.s, pt.t)
        rhs = torsion_solid_torus_closed(trace_u(pt.s))
        trace.append(lhs)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    passed["trace identity 2 - tr rho(l) = u^2(5 - u^2)"] = worst <= 1e-8
    words, worst_closed, worst_l21 = [], 0.0, 0.0
    for pt in points:
        # a fold of `@`, not the word product the stacked check calls
        imgs = rep_stacks(pt.s, pt.t)
        word = reduce(np.matmul, (imgs[a][0] for a in LONGITUDE), E2)
        words.append(word)
        scale = max(1.0, float(np.max(np.abs(word))))
        gap = max(abs(longitude_l11(pt.s, pt.t) - word[0, 0]),
                  abs(trace_l(pt.s, pt.t) - np.trace(word)))
        worst_closed = max(worst_closed, gap / scale)
        worst_l21 = max(worst_l21, abs(word[1, 0]) / scale)
    passed["longitude l11 and trace vs word product"] = \
        worst_closed <= 1e-9 and worst_l21 <= 1e-8
    rng = np.random.default_rng(seed + 2)
    torus, worst, masked = [], 0.0, 0
    for _ in range(100):
        a, b = random_commuting_pairs(rng, 1)
        try:
            val = torus_torsion_oracle(a[0], b[0]).value
        except NotAcyclic:
            masked += 1
            continue
        torus.append(val)
        worst = max(worst, abs(abs(val) - 1.0))
    passed["torus complex |tau| = 1"] = masked == 0 and worst <= 1e-8
    return points, passed, ext, trace, words, torus


@pytest.mark.parametrize("seed", [0, 17, 20240823])
def test_stacked_checks_match_reference_loops(seed):
    points, passed, ext, trace, words, torus = reference_checks(200, seed)
    results = {r.name: r for r in run_all(200, seed)}
    for name, ok in passed.items():
        assert results[name].passed == ok, name
    # the per-point values behind the stacked checks
    s = np.array([p.s for p in points])
    t = np.array([p.t for p in points])
    val = torsion_exterior_oracle(s, t)
    assert all(close(a, b, REFERENCE_RTOL) for a, b in zip(val.value, ext))
    assert all(close(a, b, REFERENCE_RTOL)
               for a, b in zip(torsion_solid_torus_from_trace(s, t), trace))
    stacked_words = longitude_matrix_word(s, t)
    for a, b in zip(stacked_words, words):
        assert close_matrix(a, b, REFERENCE_RTOL)
    rng = np.random.default_rng(seed + 2)
    drawn = [random_commuting_pairs(rng, 1) for _ in range(100)]
    val = torus_torsion_oracle(np.concatenate([a for a, _ in drawn]),
                               np.concatenate([b for _, b in drawn]))
    assert val.acyclic.all()
    assert all(close(a, b, REFERENCE_RTOL) for a, b in zip(val.value, torus))



def stacks_by_dims(n, seed):
    """n random acyclic complexes from one rng, one stack per dims."""
    rng = np.random.default_rng(seed)
    shapes = {}
    for _ in range(n):
        cx = random_acyclic_complex(rng)
        shapes.setdefault(cx.dims, []).append(cx.boundaries)
    return [ChainComplex(dims, tuple(map(np.array, zip(*items))))
            for dims, items in shapes.items()]


def items_of(stack):
    return [ChainComplex(stack.dims, bs) for bs in zip(*stack.boundaries)]


@pytest.mark.parametrize("seed", range(10))
def test_stacked_perturbation_matches_items(seed):
    for stack in stacks_by_dims(40, seed=6):
        val = torsion_with_basis_perturbation(stack, seed)
        assert val.acyclic.all()
        for k, one in enumerate(items_of(stack)):
            assert close(val.value[k],
                         torsion_with_basis_perturbation(one, seed).value,
                         PERTURBED_RTOL)


def test_zero_boundary_item_masks_only_it():
    zero = np.zeros((2, 2), dtype=complex)
    stack = ChainComplex((2, 2), (np.array([2 * E2, zero, E2]),))
    val = torsion_with_basis_perturbation(stack, 0)
    assert val.acyclic.tolist() == [True, False, True]
    assert np.isnan(val.value[1])
    assert close(val.value[0], 0.25, 1e-10) and close(val.value[2], 1.0, 1e-10)
    with pytest.raises(NotAcyclic):
        torsion_with_basis_perturbation(items_of(stack)[1], 0)


def test_zero_second_boundary_masks_only_its_item():
    """A (1, 2, 1) stack whose second item has d_2 = 0: d o d = 0 holds,
    but rank d_2 = 0 < 1.  Both calls mask that item alone, and the
    first item's perturbed value is its torsion."""
    d1 = np.array([[[2.0, 1.0]]] * 2, dtype=complex)
    d2 = np.array([[[1.0], [-2.0]], [[0.0], [0.0]]], dtype=complex)
    stack = ChainComplex((1, 2, 1), (d1, d2))
    ref = torsion(stack)
    assert ref.acyclic.tolist() == [True, False]
    for seed in range(10):
        val = torsion_with_basis_perturbation(stack, seed)
        assert val.acyclic.tolist() == [True, False], seed
        assert close(val.value[0], ref.value[0], PERTURBED_RTOL), seed


# sigma_min of d g for the middle item is about 2e-9 |det g| / sigma_max:
# seed 4 draws a g that puts the item alone under the rank threshold; in
# the stack, seed 5 does the same for the middle item
NEAR_THRESHOLD = ChainComplex(
    (2, 2), (np.array([E2, np.diag([1.0, 2e-9]).astype(complex), 2 * E2]),))


def test_only_the_near_threshold_item_is_masked(monkeypatch):
    """A drawn basis that falls short of its rank masks its item: there
    is one draw per degree and no second."""
    stack = NEAR_THRESHOLD
    with pytest.raises(NotAcyclic):
        torsion_with_basis_perturbation(items_of(stack)[1], 4)
    sizes = []
    rank = chain.rank

    def counting_rank(m):
        sizes.append(len(m))
        return rank(m)

    monkeypatch.setattr(chain, "rank", counting_rank)
    val = torsion_with_basis_perturbation(stack, 5)
    # the three drawn bases, and no boundary
    assert sizes == [3]
    assert val.acyclic.tolist() == [True, False, True]
    assert close(val.value[0], 1.0, 1e-10)
    assert close(val.value[2], 0.25, 1e-10)


def test_copies_of_one_complex_draw_their_own_bases():
    """10 copies of one complex check 10 choices of bases: the values
    differ in their last bits, and each is the torsion."""
    cx = items_of(stacks_by_dims(6, seed=1)[0])[0]
    copies = ChainComplex(cx.dims, tuple(np.tile(d, (10, 1, 1))
                                         for d in cx.boundaries))
    val = torsion_with_basis_perturbation(copies, 0)
    assert val.value.shape == (10,) and val.acyclic.all()
    assert len({v.tobytes() for v in val.value}) > 1
    ref = torsion(cx).value
    assert all(close(v, ref, PERTURBED_RTOL) for v in val.value)


def reference_basis_check(n_fixtures, seed):
    """The per-fixture loop that the stacked check replaced."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fixtures):
        cx = random_acyclic_complex(rng)
        ref = torsion(cx).value
        for pert_seed in range(10):
            val = torsion_with_basis_perturbation(cx, pert_seed).value
            worst = max(worst, abs(val - ref) / max(1.0, abs(val), abs(ref)))
    return worst <= 1e-8, worst


@pytest.mark.parametrize("seed", [1, 18, 20240824])
def test_basis_check_matches_reference_loop(seed):
    """The same verdict; the check draws its fixtures as one stack per
    dims and its bases from its own stream, so the residuals are those of
    other complexes and bases, both far under the tolerance."""
    passed, worst = reference_basis_check(20, seed)
    res = check_basis_independence(20, seed)
    assert res.passed == passed
    assert max(res.max_residual, worst) <= 1e-11
    assert res.detail.endswith("x 10 bases, 0 masked")


def fixture_shapes(n_fixtures, seed):
    """The dims of the check's fixture stacks, replayed from its seed."""
    return [c.dims for c in
            random_acyclic_stacks(np.random.default_rng(seed), n_fixtures)]


def test_basis_check_makes_one_call_per_shape(monkeypatch):
    calls = {"torsion": [], "perturbed": []}

    def counting(name, fn):
        def wrapped(c, *args, **kwargs):
            val = fn(c, *args, **kwargs)
            calls[name].append((c, kwargs, val))
            return val
        return wrapped

    monkeypatch.setattr(verify, "torsion", counting("torsion", torsion))
    monkeypatch.setattr(verify, "torsion_with_basis_perturbation",
                        counting("perturbed", torsion_with_basis_perturbation))
    res = check_basis_independence(20, seed=2)
    shapes = fixture_shapes(20, seed=2)
    assert [c.dims for c, _, _ in calls["torsion"]] == shapes
    assert [c.dims for c, _, _ in calls["perturbed"]] == shapes
    # every fixture rides in one stack, which the perturbed call takes
    # tiled 10 times: 10 bases per fixture
    assert sum(c.size for c, _, _ in calls["torsion"]) == 20
    for (ref, _, _), (c, kwargs, val) in zip(calls["torsion"],
                                             calls["perturbed"]):
        assert kwargs == {} and c.dims == ref.dims
        for d, d_ref in zip(c.boundaries, ref.boundaries):
            assert np.array_equal(d, np.tile(d_ref, (10, 1, 1)))
        assert val.value.shape == (10 * ref.size,)
    assert res.passed
    assert res.detail.startswith(f"20 fixtures in {len(shapes)} shapes")


def test_basis_check_svd_calls(monkeypatch):
    # per shape: one full svd per boundary in the torsion call, then none
    # in the perturbed call, which reads singular values only (`rank`)
    # and of no boundary: each stack of the 10 n random bases b = d g
    calls = []
    svd, rank = chain.svd, chain.rank

    def counting_svd(m):
        calls.append("svd")
        return svd(m)

    def counting_rank(m):
        calls.append(len(m))
        return rank(m)

    def marked(c, rng):
        calls.append("perturbed")
        return torsion_with_basis_perturbation(c, rng)

    monkeypatch.setattr(chain, "svd", counting_svd)
    monkeypatch.setattr(chain, "rank", counting_rank)
    monkeypatch.setattr(verify, "torsion_with_basis_perturbation", marked)
    for seed in range(2, 22):
        del calls[:]
        res = check_basis_independence(20, seed)
        assert res.detail.endswith("x 10 bases, 0 masked")
        stacks = random_acyclic_stacks(np.random.default_rng(seed), 20)
        assert calls == [
            call for c in stacks for call in
            ("svd", "svd", "perturbed", 10 * c.size, 10 * c.size)], seed


def test_only_the_basis_check_takes_lapack_svds(monkeypatch, lapack_svds):
    """In run_all(200, 0) the exterior (203 points) and torus (100 pairs)
    checks take `svd`'s Jacobi kernel and make no full LAPACK SVD; the
    basis check's `torsion` calls, on stacks of at most 20 fixtures,
    make one per boundary."""
    by_check = {}
    for name in ("check_exterior_oracle", "check_torus_oracle",
                 "check_basis_independence"):
        def marked(*args, _check=getattr(verify, name), _name=name):
            start = len(lapack_svds)
            res = _check(*args)
            by_check[_name] = lapack_svds[start:]
            return res

        monkeypatch.setattr(verify, name, marked)
    run_all(200, 0)
    assert by_check["check_exterior_oracle"] == []
    assert by_check["check_torus_oracle"] == []
    shapes = fixture_shapes(20, 1)
    assert len(by_check["check_basis_independence"]) == 2 * len(shapes)


def test_masked_fixture_fails_the_basis_check(monkeypatch):
    # a NaN residual would vanish under max(); the masked count fails it
    def mask_first(c, seed):
        val = torsion_with_basis_perturbation(c, seed)
        acyclic = val.acyclic.copy()
        acyclic[0] = False
        return chain.stack_result(True, val.value, acyclic)

    monkeypatch.setattr(verify, "torsion_with_basis_perturbation", mask_first)
    res = check_basis_independence(20, seed=2)
    assert not res.passed and np.isfinite(res.max_residual)
    shapes = fixture_shapes(20, seed=2)
    assert res.detail.endswith(f"x 10 bases, {len(shapes)} masked")


def test_fixture_under_the_rank_threshold_fails_the_basis_check(monkeypatch):
    """A fixture whose boundary has sigma_min / sigma_max = 5e-10, under
    RANK_RTOL, is masked by `torsion`; some of its drawn bases may keep
    their rank, but the check requires both masks, so it counts the
    fixture as masked and fails."""
    stack = ChainComplex(
        (2, 2), (np.array([E2, np.diag([1.0, 5e-10]), 2 * E2], complex),))
    assert torsion(stack).acyclic.tolist() == [True, False, True]
    monkeypatch.setattr(verify, "random_acyclic_stacks",
                        lambda rng, n: [stack])
    res = check_basis_independence(3, seed=0)
    assert not res.passed and np.isfinite(res.max_residual)
    assert res.detail == "3 fixtures in 1 shapes x 10 bases, 1 masked"


def test_surgery_check_makes_one_call_of_each(monkeypatch):
    """One solve_surgery call on the ten slopes and one torsion call;
    the worst residual is the per-row loop's, bit for bit."""
    solves, taus = [], []
    solve = verify.solve_surgery

    def counting_solve(slopes):
        solves.append(list(slopes))
        return solve(slopes)

    def counting_tau(u):
        taus.append(len(u))
        return torsion_surgered(u)

    monkeypatch.setattr(verify, "solve_surgery", counting_solve)
    monkeypatch.setattr(verify, "torsion_surgered", counting_tau)
    res = check_surgery_solver()
    assert len(solves) == 1 and len(set(solves[0])) == len(solves[0]) == 10
    rows = [sol for slope in solves[0] for sol in solve_surgery(slope)]
    assert SurgerySlope(1, 0) in solves[0]
    assert all(sol.slope != SurgerySlope(1, 0) for sol in rows)
    # one torsion call over the rows of all slopes, less the degenerate
    assert taus == [sum(sol.torsion is not None for sol in rows)]
    # the per-row loop of one-point residuals
    worst = 0.0
    for sol in rows:
        worst = max(worst, surgery_residual(sol.point, sol.slope)[1],
                    sol.point.residual)
        if sol.torsion is not None:
            tau = torsion_surgered(sol.u)
            worst = max(worst, abs(sol.torsion - tau)
                        / max(1.0, abs(sol.torsion), abs(tau)))
    assert res.passed
    assert res.max_residual.hex() == worst.hex()
    assert res.detail == f"10 slopes, {len(rows)} solutions"


def test_run_all_returns_its_rows_from_one_solve_call(monkeypatch):
    """A caller that wraps verify.solve_surgery, as the verify_sweep
    benchmark does to count characters, sees one call whose flat list of
    rows is the surgery check's solutions."""
    counts = []

    def counting_solve_surgery(*args, **kwargs):
        rows = surgery.solve_surgery(*args, **kwargs)
        counts.append(len(rows))
        return rows

    monkeypatch.setattr(verify, "solve_surgery", counting_solve_surgery)
    check = run_all(200, 0)[-1]
    assert len(counts) == 1 and counts[0] > 0
    assert check.detail == f"10 slopes, {counts[0]} solutions"


def _drop_last_row(slopes):
    return surgery.solve_surgery(slopes)[:-1]


def _no_rows(slopes):
    return []


def _t_from_l11_sign_flipped(a, b, lam):
    return (b - lam) / a


@pytest.mark.parametrize("module, name, defect", [
    (verify, "solve_surgery", _drop_last_row),
    (verify, "solve_surgery", _no_rows),
    (surgery, "_t_from_l11", _t_from_l11_sign_flipped)],
    ids=["drop_last_row", "no_rows", "t_from_l11_sign_flipped"])
def test_planted_surgery_defects_fail_verify(monkeypatch, module, name,
                                             defect):
    """A solver that loses rows fails the surgery check by its count of
    characters, N(p/q) per slope: the rows it keeps still meet every
    residual.  A sign-flipped t at the branch points loses the rows of
    3/1 and 3/2 whose t it gives."""
    monkeypatch.setattr(module, name, defect)
    results = run_all(0, 0)
    assert [r.passed for r in results] == [True] * 7 + [False]
    assert "FAIL" in results[-1].line()


_DENOMINATOR = formulas._denominator


def _denominator_inverted(u):
    """u^2/(u^2 - 5) in place of u^2 (u^2 - 5), refused where the product
    is, so the planted defect changes values and not DegenerateU."""
    _DENOMINATOR(u)
    return u * u / (u * u - 5)


def test_planted_denominator_defect_fails_verify(monkeypatch):
    """A wrong u-form denominator changes every printed tau(M), and the
    trace check catches it through the solid-torus trace form.  At the
    geometric point u = 2 both denominators are -4, and the product and
    surgery checks read the denominator on both of their sides, so the
    trace check is the one to fail."""
    monkeypatch.setattr(formulas, "_denominator", _denominator_inverted)
    results = run_all(200, 0)
    assert [r.passed for r in results] == [True, True, False] + [True] * 5
    assert results[2].max_residual > 1.0
    assert "FAIL" in results[2].line()


# u = 1.2 at s = 0.6 + 0.8i, so |tau(exterior)| = 0.4: below 1, where the
# floor of the relative gap |a - b| / max(1, |a|, |b|) is its denominator
S_SMALL_TAU = complex(0.6, 0.8)


def test_oracle_gap_below_modulus_one_fails(monkeypatch):
    """Below |tau| = 1 the oracle check's relative gap is the absolute
    one, by the floor max(1, ...) of `full_report` and `verify._relerr`:
    an oracle 1.5 COMPARE_TOL off fails the report flag and the verify
    check, where a floor of 2 would halve the gap and pass it."""
    def shifted(s, t):
        # the oracle's value moved to modulus |tau| + 1.5 COMPARE_TOL, tau
        # the closed form
        tau = torsion_exterior_closed(trace_u(s))
        return replace(torsion_exterior_oracle(s, t),
                       value=tau * (1 + 1.5 * COMPARE_TOL / np.abs(tau)))

    plus = solve_t(S_SMALL_TAU)[0]
    s, t = np.array([plus.s]), np.array([plus.t])
    assert abs(torsion_exterior_closed(trace_u(plus.s))) < 1
    assert full_report(plus).flags["exterior_oracle_abs"] == "pass"
    assert check_exterior_oracle(s, t).passed
    monkeypatch.setattr(formulas, "torsion_exterior_oracle", shifted)
    monkeypatch.setattr(verify, "torsion_exterior_oracle", shifted)
    assert full_report(plus).flags["exterior_oracle_abs"] == "fail"
    res = check_exterior_oracle(s, t)
    assert not res.passed and "FAIL" in res.line()


def test_surgery_check_names_only_a_short_slope(monkeypatch):
    assert check_surgery_solver().detail == "10 slopes, 47 solutions"
    monkeypatch.setattr(verify, "solve_surgery", _drop_last_row)
    res = check_surgery_solver()
    assert not res.passed
    assert res.detail == "10 slopes, 46 solutions; 4/1: 0 of 1 rows"

"""The stacked chain-torsion path: every item of an (N, ., .) call
equals the call on that item alone, non-acyclic items are masked, and
the stacked verify checks agree with per-point and per-fixture
reference loops.

Items agree to STACK_RTOL, not bit for bit: numpy's vectorized complex
arithmetic on a long array rounds differently in the last bits from its
loop over a one-item array."""

import cmath
import math

import numpy as np
import pytest

from fig8torsion import chain
from fig8torsion.chain import (ChainComplex, is_acyclic, torsion,
                               torsion_with_basis_perturbation)
from fig8torsion.errors import NotAcyclic, SingularMatrix
from fig8torsion.formulas import (presentation_complex,
                                  torsion_exterior_closed,
                                  torsion_exterior_oracle,
                                  torus_torsion_oracle)
from fig8torsion.linalg import E2, mat2, mat2_inverse
from fig8torsion.riley import (LONGITUDE, RELATOR, longitude_l11,
                               longitude_matrix_word, rep_stacks, solve_t,
                               trace_l, trace_u)
from fig8torsion.formulas import torsion_surgered
from fig8torsion.surgery import SurgerySlope, solve_surgery, surgery_residual
from fig8torsion.verify import (check_basis_independence,
                                check_product_identity, check_surgery_solver,
                                check_torus_oracle,
                                random_acyclic_complex, random_commuting_pair,
                                random_commuting_pairs, run_all,
                                sample_variety_points)
from fig8torsion import verify
from fig8torsion.words import X, Y, fox_jacobian, parse_word, word_product

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
    # the s = 1 fixture, where det(rho(x) - E) = 0, rides along
    return [solve_t(1.0)[0]] + sample_variety_points(40, seed=3)


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(8)
    return [random_commuting_pair(rng) for _ in range(30)]


def exterior_complexes(pts):
    imgs = rep_stacks(np.array([p.s for p in pts]),
                      np.array([p.t for p in pts]))
    return presentation_complex(imgs[X], imgs[Y],
                                *fox_jacobian(RELATOR, imgs[X], imgs[Y]))


def test_stacked_torsion_matches_items(points):
    stack = exterior_complexes(points)
    val = torsion(stack)
    assert stack.stacked and stack.size == len(points)
    assert val.acyclic.shape == (len(points),) and val.acyclic.all()
    assert is_acyclic(stack).all()
    for k, (d1, d2) in enumerate(zip(*stack.boundaries)):
        one = ChainComplex(dims=stack.dims, boundaries=(d1, d2))
        assert is_acyclic(one) is True
        assert close(val.value[k], torsion(one).value)


def test_stacked_exterior_oracle_matches_items(points):
    val = torsion_exterior_oracle(points)
    assert val.sign_ambiguous and val.acyclic.all()
    for k, pt in enumerate(points):
        assert close(val.value[k], torsion_exterior_oracle(pt).value)


def test_stacked_torus_oracle_matches_items(pairs):
    val = torus_torsion_oracle(np.array([a for a, _ in pairs]),
                               np.array([b for _, b in pairs]))
    assert val.sign_ambiguous and val.acyclic.all()
    for k, (a, b) in enumerate(pairs):
        assert close(val.value[k], torus_torsion_oracle(a, b).value)


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
    stack = points[:5] + [bad] + points[5:10]
    val = torsion_exterior_oracle(stack)
    assert np.flatnonzero(~val.acyclic).tolist() == [5]
    assert np.isnan(val.value[5])
    assert np.isfinite(val.value[val.acyclic]).all()
    with pytest.raises(NotAcyclic):
        torsion_exterior_oracle(bad)


def test_non_acyclic_torus_pair_masks_only_its_item(pairs):
    a = np.array([x for x, _ in pairs[:4]] + [E2])
    b = np.array([y for _, y in pairs[:4]] + [E2])
    val = torus_torsion_oracle(a, b)
    assert val.acyclic.tolist() == [True] * 4 + [False]
    with pytest.raises(NotAcyclic):
        torus_torsion_oracle(E2, E2)


def test_one_singular_item_raises(pairs):
    a = np.array([x for x, _ in pairs[:4]] + [mat2(1, 2, 2, 4)])
    b = np.array([y for _, y in pairs[:5]])
    with pytest.raises(SingularMatrix):
        mat2_inverse(a)
    with pytest.raises(SingularMatrix):
        torus_torsion_oracle(a, b)


def test_euler_characteristic_raises_before_any_svd(monkeypatch):
    def no_svd(m):
        raise AssertionError("svd called")

    monkeypatch.setattr(chain, "svd", no_svd)
    cx = ChainComplex(dims=(1, 2),
                      boundaries=(np.array([[1.0, 2.0]], dtype=complex),))
    with pytest.raises(NotAcyclic, match="Euler"):
        torsion(cx)
    assert is_acyclic(cx) is False
    stack = ChainComplex(dims=(1, 2), boundaries=(np.ones((3, 1, 2)),))
    with pytest.raises(NotAcyclic, match="Euler"):
        torsion(stack)
    assert is_acyclic(stack).tolist() == [False] * 3


def test_zero_map_gets_no_svd(monkeypatch, points):
    shapes = []
    svd = chain.svd

    def counting_svd(m):
        shapes.append(m.shape)
        return svd(m)

    monkeypatch.setattr(chain, "svd", counting_svd)
    # one call per boundary, d_1 (2 x 4) and d_2 (4 x 2); the zero map
    # C_3 -> C_2 has none
    torsion(exterior_complexes(points))
    torsion_exterior_oracle(points[0])
    n = len(points)
    assert shapes == [(n, 2, 4), (n, 4, 2), (1, 2, 4), (1, 4, 2)]


def test_redraws_are_counted(monkeypatch):
    draw = random_commuting_pairs
    rounds, pairs = [], []

    def every_third_trivial(rng, n):
        # every third pair, counted over all rounds, is (E2, E2)
        rounds.append(n)
        imga, imgb = draw(rng, n)
        for k in range(n):
            pairs.append(None)
            if len(pairs) % 3 == 0:
                imga[k] = imgb[k] = E2
        return imga, imgb

    monkeypatch.setattr(verify, "random_commuting_pairs", every_third_trivial)
    res = check_torus_oracle(10, seed=4)
    assert res.passed
    # the non-acyclic pairs are 3, 6, ..., and the 10th acyclic one is 14
    assert len(pairs) == 14 and rounds == [10, 3, 1]
    assert res.detail == "10 commuting pairs, 4 redrawn"
    monkeypatch.undo()
    assert check_torus_oracle(10, seed=4).detail.endswith(", 0 redrawn")
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
        a, b = random_commuting_pair(rng)
        assert a.tobytes() == imga[k].tobytes(), k
        assert b.tobytes() == imgb[k].tobytes(), k
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
        if abs(2 - trace_u(s)) < 1e-3:
            continue
        plus, minus = solve_t(s)
        pts.append(plus if len(pts) % 2 == 0 else minus)
    return pts


@pytest.mark.parametrize("seed", [0, 3, 20240823])
def test_variety_samples_match_reference_loop(seed):
    """The same points and branches; np.exp and math.exp may round apart
    in the last bit, so s agrees to 1e-15 and t, which the quadratic
    passes s's rounding on to, to 1e-14."""
    pts = sample_variety_points(200, seed)
    ref = reference_variety_points(200, seed)
    assert [p.branch for p in pts] == [p.branch for p in ref]
    for p, q in zip(pts, ref):
        assert abs(p.s - q.s) <= 1e-15 * abs(q.s)
        assert close(p.t, q.t, 1e-14)
        assert p.on_variety()


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
    assert len(sample_variety_points(200, seed=5)) == 200
    assert calls["branches"] == 1
    res = check_torus_oracle(100, seed=6)
    assert res.detail.endswith(", 0 redrawn")
    assert calls["draws"] == calls["oracle"] == 1


def reference_checks(samples, seed):
    """The per-point loops that the stacked checks replaced: the passed
    flag of each sampled check, and the per-point values."""
    points = sample_variety_points(samples, seed)
    points = [solve_t(1.0)[0], solve_t(2.0)[0], solve_t(2.0)[1]] + points
    ext, worst = [], 0.0
    for pt in points:
        val = torsion_exterior_oracle(pt).value
        ext.append(val)
        closed = torsion_exterior_closed(trace_u(pt.s))
        worst = max(worst, abs(abs(val) - abs(closed)) / max(1.0, abs(val),
                                                              abs(closed)))
    passed = {"exterior oracle |tau| vs closed form": worst <= 1e-8}
    trace, worst = [], 0.0
    for pt in points:
        u = trace_u(pt.s)
        lhs, rhs = 2 - trace_l(pt.s, pt.t), -u ** 4 + 5 * u ** 2
        trace.append(lhs)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    passed["trace identity 2 - tr rho(l) = u^2(5 - u^2)"] = worst <= 1e-8
    words, worst_closed, worst_l21 = [], 0.0, 0.0
    for pt in points:
        word = longitude_matrix_word(pt)
        words.append(word)
        scale = max(1.0, float(np.max(np.abs(word))))
        gap = max(abs(longitude_l11(pt.s, pt.t) - word[0, 0]),
                  abs(trace_l(pt.s, pt.t) - np.trace(word)))
        worst_closed = max(worst_closed, gap / scale)
        worst_l21 = max(worst_l21, abs(word[1, 0]) / scale)
    passed["longitude l11 and trace vs word product"] = \
        worst_closed <= 1e-9 and worst_l21 <= 1e-8
    rng = np.random.default_rng(seed + 2)
    torus, worst = [], 0.0
    while len(torus) < 100:
        try:
            val = torus_torsion_oracle(*random_commuting_pair(rng)).value
        except NotAcyclic:
            continue
        torus.append(val)
        worst = max(worst, abs(abs(val) - 1.0))
    passed["torus complex |tau| = 1"] = worst <= 1e-8
    return points, passed, ext, trace, words, torus


@pytest.mark.parametrize("seed", [0, 17, 20240823])
def test_stacked_checks_match_reference_loops(seed):
    points, passed, ext, trace, words, torus = reference_checks(200, seed)
    results = {r.name: r for r in run_all(200, seed)}
    for name, ok in passed.items():
        assert results[name].passed == ok, name
    # the per-point values behind the stacked checks
    val = torsion_exterior_oracle(points)
    assert all(close(a, b, REFERENCE_RTOL) for a, b in zip(val.value, ext))
    s = np.array([p.s for p in points])
    t = np.array([p.t for p in points])
    assert all(close(a, b, REFERENCE_RTOL)
               for a, b in zip(2 - trace_l(s, t), trace))
    stacked_words = word_product(LONGITUDE, rep_stacks(s, t))
    for a, b in zip(stacked_words, words):
        assert close_matrix(a, b, REFERENCE_RTOL)
    rng = np.random.default_rng(seed + 2)
    drawn = [random_commuting_pair(rng) for _ in range(100)]
    val = torus_torsion_oracle(np.array([a for a, _ in drawn]),
                               np.array([b for _, b in drawn]))
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
        assert val.acyclic.all() and val.redrawn == 0
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


# sigma_min of d g for the middle item is about 2e-9 |det g| / sigma_max:
# seed 4 draws a g that puts it under the rank threshold, and the next g
# does not
NEAR_THRESHOLD = ChainComplex(
    (2, 2), (np.array([E2, np.diag([1.0, 2e-9]).astype(complex), 2 * E2]),))


def test_only_the_near_threshold_item_redraws(monkeypatch):
    stack = NEAR_THRESHOLD
    one = torsion_with_basis_perturbation(items_of(stack)[1], 4)
    assert one.redrawn == 1
    sizes = []
    svd = chain.svd

    def counting_svd(m):
        sizes.append(len(m))
        return svd(m)

    monkeypatch.setattr(chain, "svd", counting_svd)
    val = torsion_with_basis_perturbation(stack, 4)
    # the boundaries, then the three first draws, then the one redraw
    assert sizes == [3, 3, 1]
    assert val.acyclic.all() and val.redrawn == 1
    # the other items drew nothing more, so the draws are the same
    assert close(val.value[1], one.value, PERTURBED_RTOL)
    assert close(val.value[1], 5e8, 1e-10)


@pytest.mark.parametrize("stack", stacks_by_dims(40, seed=6)
                         + [NEAR_THRESHOLD])
def test_seed_batch_is_the_int_calls(stack):
    """Seed k's row of the batched call is the call with seed k, bit for
    bit: each seed keeps its own stream, and each item's arithmetic is the
    same.  (On a one-item stack the int call's determinant products take
    numpy's scalar reduction loop, which may round apart in the last bit;
    every stack here holds several items.)"""
    assert stack.size > 1
    val = torsion_with_basis_perturbation(stack, range(10))
    assert val.value.shape == val.acyclic.shape == (10, stack.size)
    redrawn = 0
    for k in range(10):
        one = torsion_with_basis_perturbation(stack, k)
        assert val.value[k].tobytes() == one.value.tobytes(), k
        assert val.acyclic[k].tolist() == one.acyclic.tolist(), k
        redrawn += one.redrawn
    assert val.redrawn == redrawn
    if stack is NEAR_THRESHOLD:
        assert redrawn >= 1


def test_seed_batch_of_one_complex():
    cx = items_of(stacks_by_dims(6, seed=1)[0])[0]
    val = torsion_with_basis_perturbation(cx, [3, 5])
    assert val.value.shape == val.acyclic.shape == (2,)
    for k, seed in enumerate([3, 5]):
        assert close(val.value[k],
                     torsion_with_basis_perturbation(cx, seed).value,
                     PERTURBED_RTOL)
    masked = torsion_with_basis_perturbation(
        ChainComplex((1, 1), (np.zeros((1, 1), dtype=complex),)), [0, 1])
    assert masked.acyclic.tolist() == [False, False]


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
    passed, worst = reference_basis_check(20, seed)
    res = check_basis_independence(20, seed)
    assert res.passed == passed
    assert abs(res.max_residual - worst) <= 1e-13
    assert res.detail.endswith("x 10 seeds, 0 redrawn, 0 masked")


def test_basis_check_makes_one_call_per_shape(monkeypatch):
    calls = {"torsion": [], "perturbed": []}

    def counting(name, fn):
        def wrapped(c, *args):
            calls[name].append((c.size if c.stacked else None, *args))
            return fn(c, *args)
        return wrapped

    monkeypatch.setattr(verify, "torsion", counting("torsion", torsion))
    monkeypatch.setattr(verify, "torsion_with_basis_perturbation",
                        counting("perturbed", torsion_with_basis_perturbation))
    res = check_basis_independence(20, seed=2)
    rng = np.random.default_rng(2)
    shapes = {random_acyclic_complex(rng).dims for _ in range(20)}
    assert len(calls["torsion"]) == len(calls["perturbed"]) == len(shapes)
    # every fixture rides in one stack, once per call kind, and the
    # perturbed call takes all 10 seeds
    assert sum(size for size, in calls["torsion"]) == 20
    assert sum(size for size, _ in calls["perturbed"]) == 20
    assert all(list(seeds) == list(range(10))
               for _, seeds in calls["perturbed"])
    assert res.passed
    assert res.detail.startswith(f"20 fixtures in {len(shapes)} shapes")


def test_basis_check_svd_calls(monkeypatch):
    # per shape: the two boundaries of the torsion call, of the perturbed
    # call, and one stacked rank test of the random bases per boundary
    n_svd = []
    svd = chain.svd

    def counting_svd(m):
        n_svd.append(None)
        return svd(m)

    monkeypatch.setattr(chain, "svd", counting_svd)
    for seed in range(2, 22):
        check_basis_independence(20, seed)
    assert len(n_svd) <= 24 * 20


def test_masked_fixture_fails_the_basis_check(monkeypatch):
    # a NaN residual would vanish under max(); the masked count fails it
    def mask_first(c, seeds):
        val = torsion_with_basis_perturbation(c, seeds)
        acyclic = val.acyclic.copy()
        acyclic[..., 0] = False
        return chain.stack_result(True, val.value, acyclic)

    monkeypatch.setattr(verify, "torsion_with_basis_perturbation", mask_first)
    res = check_basis_independence(20, seed=2)
    assert not res.passed and np.isfinite(res.max_residual)
    rng = np.random.default_rng(2)
    shapes = {random_acyclic_complex(rng).dims for _ in range(20)}
    assert res.detail.endswith(f"0 redrawn, {len(shapes)} masked")


def test_surgery_check_makes_one_residual_call_per_slope(monkeypatch):
    calls = []
    residuals = verify.relation_residuals

    def counting(s, t, slope):
        calls.append((slope.p, slope.q, len(s)))
        return residuals(s, t, slope)

    taus = []

    def counting_tau(u):
        taus.append(len(u))
        return torsion_surgered(u)

    monkeypatch.setattr(verify, "relation_residuals", counting)
    monkeypatch.setattr(verify, "torsion_surgered", counting_tau)
    res = check_surgery_solver()
    assert len({(p, q) for p, q, _ in calls}) == len(calls) == 10
    # one torsion call over the rows of all slopes, less the degenerate
    n_degenerate = sum(sol.torsion is None
                       for p, q, _ in calls
                       for sol in solve_surgery(SurgerySlope(p, q)))
    assert taus == [sum(n for _, _, n in calls) - n_degenerate]
    # the per-row loop that the one call per slope replaced
    worst, n_sol = 0.0, 0
    for p, q, n_rows in calls:
        slope = SurgerySlope(p, q)
        sols = solve_surgery(slope)
        assert len(sols) == n_rows
        for sol in sols:
            n_sol += 1
            worst = max(worst, surgery_residual(sol.point, slope)[1],
                        sol.point.residual)
            if sol.torsion is not None:
                tau = torsion_surgered(sol.u)
                worst = max(worst, abs(sol.torsion - tau)
                            / max(1.0, abs(sol.torsion), abs(tau)))
    assert res.passed
    assert res.max_residual.hex() == worst.hex()
    assert res.detail == f"10 slopes, {n_sol} solutions"

from fractions import Fraction

import numpy as np
import pytest

from fig8torsion import chain
from fig8torsion.chain import (ChainComplex, is_acyclic, torsion,
                               torsion_with_basis_perturbation)
from fig8torsion.errors import DimensionMismatch, NotAcyclic
from fig8torsion.linalg import E2, STACK_KERNEL_MIN_ITEMS, svd
from fig8torsion.riley import rep_stacks, solve_t
from fig8torsion.formulas import presentation_complex
from fig8torsion.words import X, Y, parse_word
from complex_reference import random_acyclic_complex
from fox_reference import evaluate_group_ring, fox_derivative


def two_term(mat) -> ChainComplex:
    m = np.asarray(mat, dtype=complex)
    return ChainComplex(dims=(m.shape[0], m.shape[1]), boundaries=(m,))


def torus_complex_at(pt):
    # peripheral torus: generators map to rho(x) and rho(l), which
    # commute on the variety
    from fig8torsion.riley import longitude_matrix_word
    mx = rep_stacks(pt.s, pt.t)[X][0]
    ml = longitude_matrix_word(pt.s, pt.t)
    comm = parse_word("xyXY")
    drdx = evaluate_group_ring(fox_derivative(comm, X), mx, ml)
    drdy = evaluate_group_ring(fox_derivative(comm, Y), mx, ml)
    return presentation_complex(mx, ml, drdx, drdy)


def test_malformed_complex():
    with pytest.raises(DimensionMismatch):
        ChainComplex(dims=(2, 2, 1), boundaries=(np.eye(2, dtype=complex),))
    with pytest.raises(DimensionMismatch):
        ChainComplex(dims=(2, 3), boundaries=(np.eye(2, dtype=complex),))
    with pytest.raises(DimensionMismatch):        # d o d != 0
        ChainComplex(dims=(1, 1, 1),
                     boundaries=(np.array([[1.0]], dtype=complex),
                                 np.array([[1.0]], dtype=complex)))


def test_is_acyclic():
    assert is_acyclic(two_term(E2))
    assert not is_acyclic(two_term(np.zeros((1, 1))))
    # the one rank threshold: sigma > 1e-9 * max(1, sigma_max) counts
    tiny = two_term(np.diag([1.0, 2e-9]))
    assert is_acyclic(tiny)
    assert abs(torsion(tiny).value - 5e8) <= 1e-12 * 5e8
    # twisted torus complex at s = 2: tr rho(x) = 2.5 != 2
    assert is_acyclic(torus_complex_at(solve_t(2.0)[0]))


def test_torsion_conventions():
    assert abs(torsion(two_term([[2.0]])).value - 0.5) < 1e-14
    assert abs(torsion(two_term(E2)).value - 1.0) < 1e-14
    cx = ChainComplex(dims=(1, 2, 1),
                      boundaries=(np.array([[0.0, 3.0]], dtype=complex),
                                  np.array([[1.0], [0.0]], dtype=complex)))
    assert abs(abs(torsion(cx).value) - 1 / 3) < 1e-14


def test_torsion_not_acyclic():
    with pytest.raises(NotAcyclic):
        torsion(two_term(np.zeros((1, 1))))
    with pytest.raises(NotAcyclic):
        torsion(two_term(np.diag([1.0, 5e-10])))
    with pytest.raises(NotAcyclic):
        torsion_with_basis_perturbation(two_term(np.zeros((1, 1))), 0)


def test_perturbation_fixed_fixtures():
    for seed in range(10):
        assert abs(torsion_with_basis_perturbation(two_term(E2), seed).value
                   - 1.0) < 1e-10
        assert abs(torsion_with_basis_perturbation(two_term([[2.0]]), seed).value
                   - 0.5) < 1e-10


def test_perturbation_torus_complex():
    cx = torus_complex_at(solve_t(2.0)[0])
    ref = torsion(cx).value
    for seed in range(10):
        val = torsion_with_basis_perturbation(cx, seed).value
        assert abs(val - ref) <= 1e-8 * max(1, abs(ref))


def test_basis_independence_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cx = random_acyclic_complex(rng)
        ref = torsion(cx).value
        for seed in range(10):
            val = torsion_with_basis_perturbation(cx, seed).value
            assert abs(val - ref) <= 1e-8 * max(1, abs(ref))


def random_invertible(rng, n):
    while True:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if abs(np.linalg.det(m)) > 1e-3:
            return m


def random_exact_four_term(rng) -> ChainComplex:
    """Random exact complex C_3 -> C_2 -> C_1 -> C_0 of dims (1, 3, 3, 1),
    from random changes of basis P of C_1 and Q of C_2: ker d_1 = im d_2
    is spanned by P's first two columns and ker d_2 = im d_3 by Q's
    first column, so both interior kernels are nonzero."""
    p, q = random_invertible(rng, 3), random_invertible(rng, 3)
    d1 = np.linalg.inv(p)[2:, :]                   # C1 -> C0, ker = P[:, :2]
    d2 = p[:, :2] @ np.linalg.inv(q)[1:, :]        # C2 -> C1, ker = Q[:, :1]
    d3 = q[:, :1]                                  # C3 -> C2, injective
    return ChainComplex(dims=(1, 3, 3, 1), boundaries=(d1, d2, d3))


def test_perturbation_four_term_complex():
    """Two interior kernels: the lift shift into ker d_1 comes from d_2,
    which is not the top map, and the one into ker d_2 from d_3."""
    rng = np.random.default_rng(12)
    cxs = [random_exact_four_term(rng) for _ in range(10)]
    for k, cx in enumerate(cxs):
        assert is_acyclic(cx)
        ref = torsion(cx).value
        val = torsion_with_basis_perturbation(cx, k).value
        assert abs(val - ref) <= 1e-9 * max(1, abs(ref))
    stack = ChainComplex(cxs[0].dims, tuple(map(np.array, zip(
        *(cx.boundaries for cx in cxs)))))
    val = torsion_with_basis_perturbation(stack, 3)
    ref = torsion(stack)
    assert val.acyclic.all() and ref.acyclic.all()
    assert np.all(np.abs(val.value - ref.value)
                  <= 1e-9 * np.maximum(1, np.abs(ref.value)))


def test_four_term_stack_takes_lapack(lapack_svds, lapack_dets):
    """No boundary of the (1, 3, 3, 1) complex has two rows or two
    columns, so however long its stack, `svd` of its 3 x 3 map makes one
    LAPACK call and `torsion` one per boundary; of its four determinants
    the two 3 x 3 ones go to LAPACK, the two 1 x 1 ones do not."""
    cx = random_exact_four_term(np.random.default_rng(13))
    n = STACK_KERNEL_MIN_ITEMS
    tiled = ChainComplex(cx.dims,
                         tuple(np.tile(b, (n, 1, 1)) for b in cx.boundaries))
    assert svd(tiled.boundaries[1])[3].tolist() == [2] * n
    assert lapack_svds == [(n, 3, 3)]
    del lapack_svds[:], lapack_dets[:]
    val = torsion(tiled)
    assert lapack_svds == [(n, 1, 3), (n, 3, 3), (n, 3, 1)]
    assert lapack_dets == [(n, 3, 3), (n, 3, 3)]
    assert val.acyclic.all()
    assert np.allclose(val.value, torsion(cx).value, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, STACK_KERNEL_MIN_ITEMS])
def test_torsion_takes_no_small_det_to_lapack(lapack_dets, n):
    """The exterior and torus complexes, dims (2, 4, 2), assemble 2 x 2,
    4 x 4 and 2 x 2 bases, and the two-term ones 1 x 1 or 2 x 2: only the
    4 x 4 determinant goes to LAPACK, on short and long stacks alike."""
    pts = [solve_t(2.0)[0], solve_t(complex(0.5, 1.5))[1]]
    for cx in [torus_complex_at(p) for p in pts] + [
            two_term(E2), two_term([[2.0]]), two_term(np.diag([1.0, 3.0]))]:
        stack = ChainComplex(cx.dims, tuple(np.tile(b, (n, 1, 1))
                                            for b in cx.boundaries))
        del lapack_dets[:]
        assert torsion(stack).acyclic.all()
        assert lapack_dets == ([(n, 4, 4)] if cx.dims[1] == 4 else [])


def exact_det2(m) -> tuple[Fraction, Fraction]:
    """The real and imaginary parts of a11 a22 - a12 a21, exactly."""
    (a, b), (c, d) = [[(Fraction(z.real), Fraction(z.imag)) for z in row]
                      for row in m]

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    (p, q), (r, s) = mul(a, d), mul(b, c)
    return p - r, q - s


def near_cancelling(rng, n, spread):
    """n random complex 2 x 2 matrices, entries scaled by e^[-spread,
    spread]; in the second half row 2 is row 1 to within 1e-9, so the
    two products of the determinant nearly cancel."""
    m = rng.normal(size=(n, 2, 4)).view(complex)
    m *= np.exp(rng.uniform(-spread, spread, size=(n, 2, 2)))
    m[n // 2:, 1] = m[n // 2:, 0] * (1 + 1e-9 * rng.normal(size=(n // 2, 2)))
    return m, (np.abs(m[:, 0, 0] * m[:, 1, 1])
               + np.abs(m[:, 0, 1] * m[:, 1, 0]))


def test_closed_form_dets_match_lapack():
    """k = 1 is the entry itself.  k = 2 is a11 a22 - a12 a21: each
    complex product rounds by at most sqrt(2) gamma_2 |a| |b| and the
    difference by u, so the error is below 2 eps (|a11 a22| + |a12 a21|)
    (Higham, ch. 3), checked against the exact value on entries spread
    over e^+-20.  numpy's LAPACK det is a pivoted LU, within a few eps of
    that sum too, returned as sign * exp(sum log|u_ii|), which adds
    eps |log|u_ii|| relative: on entries of order 1, where those logs are
    small, the two agree to 4 eps of the sum."""
    rng = np.random.default_rng(14)
    m, scale = near_cancelling(rng, 400, 20)
    assert np.array_equal(chain._det(m[:, :1, :1]), m[:, 0, 0])
    eps = Fraction(chain.EPS)
    for item, det, bound in zip(m, chain._det(m), scale):
        re, im = exact_det2(item)
        err2 = (Fraction(det.real) - re) ** 2 + (Fraction(det.imag) - im) ** 2
        assert err2 <= (2 * eps * Fraction(bound)) ** 2
    m, scale = near_cancelling(rng, 400, 0)
    assert np.all(np.abs(chain._det(m) - np.linalg.det(m))
                  <= 4 * chain.EPS * scale)
    assert np.all(np.abs(chain._det(m[:, :1, :1])
                         - np.linalg.det(m[:, :1, :1]))
                  <= 4 * chain.EPS * np.abs(m[:, 0, 0]))


def test_zero_column_is_masked():
    """A basis with a zero column has det 0 in closed form, as from
    LAPACK, so `_alternating_product` masks its item."""
    for k in (1, 2, 3):
        basis = np.tile(np.eye(k, dtype=complex), (3, 1, 1))
        lift = basis.copy()
        lift[1, :, -1] = 0
        tau, nonsingular = chain._alternating_product([basis], [lift])
        assert nonsingular.tolist() == [True, False, True]
        assert tau[0] == tau[2] == 1


def test_inexact_complex_is_masked():
    """d_1 d_2 = 0 holds, but d_2 = 0 falls short of its forced rank 1,
    so the homology is nonzero: both calls mask the item in a stack, and
    a single such complex raises NotAcyclic."""
    exact = (np.array([[0.0, 3.0]]), np.array([[1.0], [0.0]]))
    inexact = (np.array([[0.0, 3.0]]), np.zeros((2, 1)))
    stack = ChainComplex((1, 2, 1), tuple(
        np.array([a, b, a], dtype=complex) for a, b in zip(exact, inexact)))
    assert is_acyclic(stack).tolist() == [True, False, True]
    for val in (torsion(stack), torsion_with_basis_perturbation(stack, 0)):
        assert val.acyclic.tolist() == [True, False, True]
        assert np.isnan(val.value[1])
        assert np.allclose(np.abs(val.value[[0, 2]]), 1 / 3, rtol=1e-12)
    single = ChainComplex((1, 2, 1), tuple(np.asarray(b, dtype=complex)
                                           for b in inexact))
    assert not is_acyclic(single)
    with pytest.raises(NotAcyclic):
        torsion(single)
    with pytest.raises(NotAcyclic):
        torsion_with_basis_perturbation(single, 0)


def test_preferred_basis_scaling_parity():
    # scaling one preferred basis vector of C_i by lam scales tau by
    # lam^(+-1) with the parity of i
    lam = 3.0
    base = ChainComplex(dims=(1, 2, 1),
                        boundaries=(np.array([[0.0, 3.0]], dtype=complex),
                                    np.array([[1.0], [0.0]], dtype=complex)))
    tau0 = torsion(base).value
    # scale the preferred basis of C_0 (even degree): tau scales by lam
    scaled0 = ChainComplex(dims=(1, 2, 1),
                           boundaries=(base.boundaries[0] / lam,
                                       base.boundaries[1]))
    assert abs(torsion(scaled0).value - tau0 * lam) < 1e-12
    # scale the preferred basis of C_2 (even degree): tau scales by lam
    scaled2 = ChainComplex(dims=(1, 2, 1),
                           boundaries=(base.boundaries[0],
                                       base.boundaries[1] * lam))
    assert abs(torsion(scaled2).value - tau0 * lam) < 1e-12
    # scale a preferred basis vector of C_1 (odd degree): tau scales by 1/lam
    scale_row = np.diag([lam, 1.0]).astype(complex)
    scaled1 = ChainComplex(dims=(1, 2, 1),
                           boundaries=(base.boundaries[0] @ scale_row,
                                       np.linalg.inv(scale_row) @ base.boundaries[1]))
    assert abs(torsion(scaled1).value - tau0 / lam) < 1e-12

import numpy as np
import pytest

from fig8torsion.errors import DegenerateLeadingCoefficient, SingularMatrix
from fig8torsion.linalg import (E2, mat2, mat2_inverse, rank, solve_quadratic,
                                svd)
from fig8torsion.riley import rep_matrices, solve_t


def random_unimodular(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m / np.sqrt(np.linalg.det(m))


def kernel(m):
    _, _, vh, r = svd(m)
    return vh[r:].conj().T


def assert_orthonormal(cols):
    assert np.max(np.abs(cols.conj().T @ cols - np.eye(cols.shape[1]))) <= 1e-12


def test_det_multiplicative_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b = random_unimodular(rng), random_unimodular(rng)
        lhs = np.linalg.det(a @ b)
        rhs = np.linalg.det(a) * np.linalg.det(b)
        assert abs(lhs - rhs) <= 1e-10


def test_inverse_two_sided_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = random_unimodular(rng)
        inv = mat2_inverse(a)
        assert np.max(np.abs(a @ inv - E2)) <= 1e-10
        assert np.max(np.abs(inv @ a - E2)) <= 1e-10


def test_inverse_examples():
    assert np.allclose(mat2_inverse(E2), E2)
    assert np.allclose(mat2_inverse(mat2(2, 1, 0, 0.5)),
                       mat2(0.5, -1, 0, 2))
    with pytest.raises(SingularMatrix):
        mat2_inverse(mat2(0, 0, 0, 0))


def test_quadratic_simple():
    assert solve_quadratic(1, 0, -1) == (1, -1)
    r_plus, r_minus = solve_quadratic(1, 1, 1)
    root3 = np.sqrt(3)
    assert abs(r_plus - complex(-0.5, root3 / 2)) < 1e-14
    assert abs(r_minus - complex(-0.5, -root3 / 2)) < 1e-14


def test_quadratic_double_root():
    r_plus, r_minus = solve_quadratic(1, -2, 1)
    assert abs(r_plus - 1) < 1e-14 and abs(r_minus - 1) < 1e-14


def test_quadratic_degenerate():
    with pytest.raises(DegenerateLeadingCoefficient):
        solve_quadratic(0, 1, 1)


def test_quadratic_residuals_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a, b, c = (complex(rng.normal(), rng.normal()) for _ in range(3))
        if abs(a) < 1e-3:
            continue
        scale = max(1.0, abs(a), abs(b), abs(c))
        for r in solve_quadratic(a, b, c):
            assert abs(a * r * r + b * r + c) <= 1e-10 * scale * max(1, abs(r)) ** 2


def test_quadratic_arrays_match_scalar_random():
    """The ndarray form pairs the roots as the scalar form does; numpy's
    array complex arithmetic differs from CPython's in the last bits, so
    the roots agree to 1e-15 relative, not bit for bit."""
    rng = np.random.default_rng(5)
    n = 2000
    a, b, c = (rng.normal(size=n) + 1j * rng.normal(size=n)
               for _ in range(3))
    a[0], b[0], c[0] = 1, 0, 0          # b = c = 0: both roots 0
    plus, minus = solve_quadratic(a, b, c)
    for k in range(n):
        for got, want in zip((plus[k], minus[k]),
                             solve_quadratic(a[k].item(), b[k].item(),
                                             c[k].item())):
            assert abs(got - want) <= 1e-15 * abs(want)


def test_quadratic_arrays_errors():
    one = np.ones(3, dtype=complex)
    with pytest.raises(DegenerateLeadingCoefficient):
        solve_quadratic(np.array([1, 0, 1], dtype=complex), one, one)
    with pytest.raises(OverflowError):
        solve_quadratic(one, np.array([1, np.inf, 1]), one)
    with pytest.raises(OverflowError):      # b * b overflows
        solve_quadratic(one, np.full(3, 1e200 + 0j), one)


def test_nullspace_examples():
    assert kernel(np.eye(2, dtype=complex)).shape[1] == 0
    basis = kernel(np.array([[1.0, 1.0]], dtype=complex))
    assert basis.shape == (2, 1)
    assert abs(basis[0, 0] + basis[1, 0]) < 1e-12
    assert_orthonormal(basis)
    # rho(x) - E at s = 2 is invertible (det = 2 - u = -1/2)
    pt = solve_t(2.0)[0]
    mx, _ = rep_matrices(pt)
    assert kernel(mx - E2).shape[1] == 0


def test_rank_nullity_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        rows, cols = rng.integers(1, 5, size=2)
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        if rng.random() < 0.5 and cols > 1:     # force rank deficiency
            m[:, -1] = m[:, 0] * complex(rng.normal(), rng.normal())
        r = rank(m)
        ns = kernel(m)
        assert r + ns.shape[1] == cols
        if ns.size:
            assert np.max(np.abs(m @ ns)) <= 1e-8 * max(1, np.max(np.abs(m)))
            assert_orthonormal(ns)


def test_pivot_columns_span_image():
    # the first r left singular vectors are a basis of the image, and the
    # lift V_r S_r^-1 maps onto them
    rng = np.random.default_rng(5)
    for _ in range(100):
        rows, cols = rng.integers(1, 5, size=2)
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        if rng.random() < 0.5 and cols > 1:     # force rank deficiency
            m[:, -1] = m[:, 0] * complex(rng.normal(), rng.normal())
        u, sv, vh, r = svd(m)
        assert r == rank(m)
        image, lift = u[:, :r], vh[:r].conj().T / sv[:r]
        assert rank(image) == r
        assert np.max(np.abs(m @ lift - image)) <= 1e-10
        # every column of m lies in the span of the image basis
        assert np.max(np.abs(m - image @ (image.conj().T @ m))) <= 1e-10

from functools import reduce

import numpy as np
import pytest

from fig8torsion.errors import DegenerateLeadingCoefficient, SingularMatrix
from fig8torsion.linalg import (E2, STACK_KERNEL_MIN_ITEMS, RANK_RTOL,
                               mat2_entries, mat2_inverse, mat2_power,
                               mat2_product, mat2_stack, rank,
                               solve_quadratic, svd)
from fig8torsion.riley import rep_stacks, solve_t
from fig8torsion.words import X
from fox_reference import ENTRY_STACK_LENGTHS, product_bound, spread_stack


def random_unimodular(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m / np.sqrt(np.linalg.det(m))


def kernel(m):
    """An orthonormal kernel basis of m: the rows of LAPACK's full V^H
    past `svd`'s rank, as `svd` returns the reduced factorization."""
    r = svd(m)[3]
    return np.linalg.svd(m)[2][r:].conj().T


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
    assert np.allclose(
        mat2_inverse(np.array([[2, 1], [0, 0.5]], dtype=complex)),
        np.array([[0.5, -1], [0, 2]], dtype=complex))
    with pytest.raises(SingularMatrix):
        mat2_inverse(np.zeros((2, 2), dtype=complex))


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
    mx = rep_stacks(pt.s, pt.t)[X][0]
    assert kernel(mx - E2).shape[1] == 0


def test_rank_nullity_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        rows, cols = rng.integers(1, 5, size=2)
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        if rng.random() < 0.5 and cols > 1:     # force rank deficiency
            m[:, -1] = m[:, 0] * complex(rng.normal(), rng.normal())
        r = svd(m)[3]
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
        image, lift = u[:, :r], vh[:r].conj().T / sv[:r]
        assert svd(image)[3] == r
        assert np.max(np.abs(m @ lift - image)) <= 1e-10
        # every column of m lies in the span of the image basis
        assert np.max(np.abs(m - image @ (image.conj().T @ m))) <= 1e-10


def planted(rng, rows, cols, sv):
    """A rows x cols matrix, or an (N, rows, cols) stack for (N, k)
    singular values sv, with those singular values and random singular
    vectors."""
    lead = sv.shape[:-1]
    k = sv.shape[-1]
    u = random_unitary(rng, rows, lead)[..., :k]
    vh = random_unitary(rng, cols, lead)[..., :k, :]
    return (u * sv[..., None, :]) @ vh


def random_unitary(rng, n, lead=()):
    shape = (*lead, n, n)
    q, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return q


KERNEL_SHAPES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]


def planted_near_threshold(rng, n, k):
    """(n, k) singular values: the largest 10^U(-1, 2), the others at 0.5x
    or 2x the rank threshold, about one in five exactly 0; and the ranks
    they give."""
    top = 10.0 ** rng.uniform(-1, 2, size=(n, 1))
    factors = rng.choice([0.5, 2.0], size=(n, k - 1))
    rest = factors * RANK_RTOL * np.maximum(1.0, top)
    rest *= rng.random((n, k - 1)) < 0.8
    expected = 1 + np.count_nonzero(rest > RANK_RTOL * np.maximum(1.0, top),
                                    axis=1)
    return np.concatenate([top, rest], axis=1), expected


def test_rank_is_the_svd_rank_on_planted_singular_values():
    """Singular values planted at 0.5x and 2x the rank threshold, on
    matrices of largest singular value below and above 1: `rank` counts
    the 2x ones and not the 0.5x ones, as `svd` does, on a stack and
    item by item; and `svd` does on stacks of each two-row or two-column
    shape long enough for its Jacobi kernel."""
    rng = np.random.default_rng(7)
    mats, expected = [], []
    for _ in range(60):
        rows, cols = (int(n) for n in rng.integers(2, 5, size=2))
        sv, ranks = planted_near_threshold(rng, 1, min(rows, cols))
        m = planted(rng, rows, cols, sv[0])
        mats.append(np.zeros((4, 4), dtype=complex))
        mats[-1][:rows, :cols] = m
        expected.append(int(ranks[0]))
        assert rank(m) == svd(m)[3] == expected[-1]
        assert isinstance(rank(m), int)
    stack = np.array(mats)
    assert rank(stack).tolist() == svd(stack)[3].tolist() == expected
    assert 1 < len(set(expected))
    for rows, cols in KERNEL_SHAPES:
        sv, ranks = planted_near_threshold(rng, STACK_KERNEL_MIN_ITEMS + 7, 2)
        stack = planted(rng, rows, cols, sv)
        assert rank(stack).tolist() == svd(stack)[3].tolist() == ranks.tolist()
        assert set(ranks) == {1, 2}


@pytest.mark.parametrize("rows, cols", [(2, 4), (4, 2), (2, 2)])
@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e6, 1e8])
def test_kernel_accuracy_on_planted_conditioning(rows, cols, kappa):
    """The Jacobi kernel on stacks of condition number kappa: m = U S V^H
    to a few eps * |m|, U and V orthonormal to a few eps, and the lift
    consistent, m V S^-1 = U, to a few eps * kappa, as LAPACK's is (a
    single rotation leaves it at eps * kappa^2).  At kappa = 1 the two
    computed sigma can come out of order (here on one 2 x 2 item), and
    the kernel swaps them back."""
    rng = np.random.default_rng(int(np.log10(kappa)) * 10 + rows)
    n = 2 * STACK_KERNEL_MIN_ITEMS
    top = 10.0 ** rng.uniform(-1, 2, size=(n, 1))
    sv_planted = top * np.array([1.0, 1 / kappa])
    m = planted(rng, rows, cols, sv_planted)
    u, sv, vh, r = svd(m)
    assert u.shape == (n, rows, 2) and vh.shape == (n, 2, cols)
    assert (r == 2).all() and (sv[:, 0] >= sv[:, 1]).all()
    eps, c = np.finfo(float).eps, 16
    norm = top[:, 0]
    assert (np.abs(sv - sv_planted).max(axis=1) <= c * eps * norm).all()
    recon = np.abs((u * sv[:, None, :]) @ vh - m).max(axis=(1, 2))
    assert (recon <= c * eps * norm).all()
    eye = np.eye(2)
    assert np.abs(u.conj().mT @ u - eye).max() <= c * eps
    assert np.abs(vh @ vh.conj().mT - eye).max() <= c * eps
    lift = m @ (vh.conj().mT / sv[:, None, :])
    assert np.abs(lift - u).max() <= c * eps * kappa


def test_kernel_zero_and_rank_one_items():
    """A zero item and a rank-1 item in a kernel-sized stack: ranks 0
    and 1, finite factors and no RuntimeWarning (an error here)."""
    rng = np.random.default_rng(9)
    for rows, cols in KERNEL_SHAPES:
        stack = planted(rng, rows, cols, np.ones((STACK_KERNEL_MIN_ITEMS, 2)))
        stack[3] = 0
        stack[5] = np.outer(rng.normal(size=rows), rng.normal(size=cols))
        u, sv, vh, r = svd(stack)
        assert r[3] == 0 and r[5] == 1 and (np.delete(r, [3, 5]) == 2).all()
        assert all(np.isfinite(x).all() for x in (u, sv, vh))
        assert (sv[3] == 0).all()
        assert np.abs((u[5] * sv[5]) @ vh[5] - stack[5]).max() <= 1e-14


def test_kernel_scales_exactly():
    """A power-of-two scaling of the stack scales sv exactly and leaves
    U and V^H as they are, down to entries far beyond the square root
    of the float range, where a Gram entry would overflow unscaled."""
    rng = np.random.default_rng(10)
    stack = planted(rng, 2, 4, np.array([3.0, 0.25]) * np.ones((60, 1)))
    u, sv, vh, _ = svd(stack)
    for power in (-600, 600):
        us, svs, vhs, _ = svd(stack * 2.0 ** power)
        assert np.array_equal(us, u) and np.array_equal(vhs, vh)
        assert np.array_equal(svs, sv * 2.0 ** power)


@pytest.mark.parametrize("n", [1, STACK_KERNEL_MIN_ITEMS])
def test_svd_rejects_non_finite(n):
    for bad in (np.nan, np.inf):
        stack = np.ones((n, 2, 4), dtype=complex)
        stack[-1, 1, 2] = bad
        with pytest.raises(OverflowError):
            svd(stack)
        with pytest.raises(OverflowError):
            rank(stack)


def test_svd_branches(lapack_svds):
    """LAPACK for a single matrix, for a one-item stack and for a stack
    shorter than STACK_KERNEL_MIN_ITEMS; the kernel, with no LAPACK call,
    for a two-row or two-column stack of that length."""
    calls = lapack_svds
    rng = np.random.default_rng(11)
    m = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    for x in (m, m[None], np.tile(m, (STACK_KERNEL_MIN_ITEMS - 1, 1, 1))):
        del calls[:]
        svd(x)
        assert calls == [x.shape]
    for rows, cols in KERNEL_SHAPES:
        del calls[:]
        u, sv, vh, r = svd(planted(rng, rows, cols,
                                   np.ones((STACK_KERNEL_MIN_ITEMS, 2))))
        assert calls == [] and (r == 2).all()
        assert u.shape[1:] == (rows, 2) and vh.shape[1:] == (2, cols)


def test_rank_rejects_non_finite():
    with pytest.raises(OverflowError):
        rank(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("n", ENTRY_STACK_LENGTHS)
def test_mat2_product_is_the_written_out_sums(n):
    """Entry (i, k) of `mat2_product` is a_i1 b_1k + a_i2 b_2k on the
    (N,) entry arrays, bit for bit: the surgery table's rows are kept by
    an absolute gate at the rounding edge (the FOUND line on
    RELATION_TOL in CHANGES.md), so the product must round as these
    sums do.  The entry layout and its stack share their memory."""
    rng = np.random.default_rng(n)
    a, b = (mat2_entries(spread_stack(rng, n)) for _ in range(2))
    assert a.shape == (2, 2, n) and a.flags.c_contiguous
    assert np.shares_memory(mat2_entries(mat2_stack(a)), a)
    product = mat2_product(a, b)
    for i in range(2):
        for k in range(2):
            written = a[i, 0] * b[0, k] + a[i, 1] * b[1, k]
            assert np.array_equal(product[i, k], written), (i, k)


@pytest.mark.parametrize("n", ENTRY_STACK_LENGTHS)
def test_mat2_power_matches_repeated_matmul(n):
    """a^k by squaring on the entry layout is E at k = 0 and a at k = 1,
    agrees with k - 1 `@` products to `product_bound`, and gives
    item j the bits of the one-item call on it."""
    rng = np.random.default_rng(n)
    a = spread_stack(rng, n)
    a /= np.abs(a).max(axis=(1, 2), keepdims=True)  # a^40 stays finite
    for k in (0, 1, 2, 3, 40):
        power = mat2_stack(mat2_power(mat2_entries(a), k))
        if k <= 1:
            assert np.array_equal(power, a if k else
                                  np.broadcast_to(E2, a.shape)), k
        else:
            gap = np.abs(power - reduce(np.matmul, [a] * k))
            assert (gap <= product_bound([a] * k)).all(), k
        for j in range(n):
            one = mat2_stack(mat2_power(mat2_entries(a[j:j + 1]), k))
            assert np.array_equal(one[0], power[j]), (k, j)

"""Small dense complex linear algebra: 2x2 matrices, quadratics, and
the singular values that decide rank, image and kernel.

Everything here works on plain numpy arrays with dtype complex128.
All matrices in this project are tiny (at most 4x4).  The numerical
rank is the count of singular values above the one threshold
RANK_RTOL, relative to the largest, which is the matrix's
conditioning.  `rank` reads the singular values alone; `svd` also
returns U and V^H, which give an image basis with a lift and a kernel
basis.

`det2`, `mat2_inverse`, `rank` and `svd` take an (N, ., .) stack of
matrices as well as a single matrix, and work item by item;
`solve_quadratic` takes arrays of coefficients.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DegenerateLeadingCoefficient, SingularMatrix

RANK_RTOL = 1e-9         # rank threshold, relative to max(1, largest sigma)
SINGULAR_TOL = 1e-12     # |det| below this means "singular" for 2x2 inverses
LEADING_TOL = 1e-12      # |a| below this: a z^2 + b z + c is not a quadratic

E2 = np.eye(2, dtype=complex)
_ADJUGATE_SIGNS = np.array([[1, -1], [-1, 1]])


def mat2(a11, a12, a21, a22) -> np.ndarray:
    """Build a 2x2 complex matrix from its entries."""
    return np.array([[a11, a12], [a21, a22]], dtype=complex)


def _check_finite(m: np.ndarray) -> np.ndarray:
    # count_nonzero is the cheapest exact test on these tiny arrays
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise OverflowError("non-finite entry in matrix result")
    return m


def det2(a: np.ndarray):
    """Determinant of a 2x2 matrix, or the (N,) determinants of a stack."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def mat2_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse via the adjugate, of a 2x2 matrix or of each item of an
    (N, 2, 2) stack; SingularMatrix if some |det| <= SINGULAR_TOL."""
    d = det2(a)
    if np.count_nonzero(np.abs(d) <= SINGULAR_TOL):
        raise SingularMatrix(
            f"|det| = {np.min(np.abs(d)):.3e} <= {SINGULAR_TOL:.1e}")
    # [[a22, -a12], [-a21, a11]]: both axes reversed, transposed, signed
    return _check_finite(a[..., ::-1, ::-1].mT * _ADJUGATE_SIGNS
                         / d[..., None, None])


def solve_quadratic(a: complex, b: complex,
                    c: complex) -> tuple[complex, complex]:
    """Both roots of a z^2 + b z + c = 0.

    The first returned root is the "+" branch: (-b + sqrt(disc)) / (2a)
    with the principal square root of the discriminant, so branch labels
    are reproducible.  Computed with the cancellation-free pairing
    (one root from the formula, the other from the product c/a).
    Raises OverflowError on a non-finite coefficient or root.

    a, b and c may also be complex ndarrays of one shape; then the
    roots are two arrays, paired the same way root by root, and an
    error is raised if any coefficient or root is out of range.
    """
    if isinstance(a, np.ndarray):
        return _solve_quadratic_arrays(a, b, c)
    if not all(cmath.isfinite(z) for z in (a, b, c)):
        raise OverflowError(f"non-finite coefficient in {(a, b, c)}")
    if abs(a) <= LEADING_TOL:
        raise DegenerateLeadingCoefficient(
            f"|a| = {abs(a):.3e} <= {LEADING_TOL:.1e}")
    with np.errstate(all="ignore"):     # an overflow is raised below
        d = np.sqrt(complex(b * b - 4 * a * c))
        plus_num, minus_num = -b + d, -b - d
        if abs(plus_num) >= abs(minus_num):
            r_plus = plus_num / (2 * a)
            r_minus = c / (a * r_plus) if r_plus != 0 else minus_num / (2 * a)
        else:
            r_minus = minus_num / (2 * a)
            r_plus = c / (a * r_minus) if r_minus != 0 else plus_num / (2 * a)
    roots = complex(r_plus), complex(r_minus)
    if not all(cmath.isfinite(z) for z in roots):
        raise OverflowError(f"non-finite root of {(a, b, c)}")
    return roots


def _solve_quadratic_arrays(a: np.ndarray, b: np.ndarray,
                            c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`solve_quadratic` on stacks: the same pairing, root by root."""
    # count_nonzero is the cheapest exact test on these short arrays
    if any(np.count_nonzero(np.isfinite(v)) != v.size for v in (a, b, c)):
        raise OverflowError("non-finite coefficient")
    small_a = np.abs(a) <= LEADING_TOL
    if np.count_nonzero(small_a):
        raise DegenerateLeadingCoefficient(
            f"|a| = {np.abs(a[small_a][0]):.3e} <= {LEADING_TOL:.1e}")
    with np.errstate(all="ignore"):     # an overflow is raised below
        d = np.sqrt(b * b - 4 * a * c)
        plus_big = np.abs(-b + d) >= np.abs(-b - d)
        # the root of larger modulus from the formula, the other from c/a
        r_big = (-b + np.where(plus_big, d, -d)) / (2 * a)
        r_small = c / (a * r_big)
        # r_big = 0 only when b = c = 0, where both roots are 0
        r_small[r_big == 0] = 0
    if (np.count_nonzero(np.isfinite(r_big)) != r_big.size
            or np.count_nonzero(np.isfinite(r_small)) != r_small.size):
        raise OverflowError("non-finite root")
    return (np.where(plus_big, r_big, r_small),
            np.where(plus_big, r_small, r_big))


def _rank(sv: np.ndarray) -> np.ndarray:
    """The number of singular values above RANK_RTOL * max(1, sv_max),
    over the last axis of the descending singular values sv."""
    # sv[..., :1] is sv_max (empty for an empty matrix)
    return (sv > RANK_RTOL * np.maximum(sv[..., :1], 1.0)).sum(axis=-1)


def rank(m: np.ndarray):
    """Numerical rank of m, as in `svd`, from its singular values alone;
    an (N,) integer array for an (N, ., .) stack.  Raises OverflowError
    on a non-finite entry."""
    m = _check_finite(np.asarray(m, dtype=complex))
    r = _rank(np.linalg.svd(m, compute_uv=False))
    return int(r) if m.ndim == 2 else r


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Full singular value decomposition m = u diag(sv) vh (u and vh
    square unitary, sv descending) and the numerical rank r: the number
    of singular values above RANK_RTOL * max(1, sv_max).

    u[:, :r] is an orthonormal basis of the image, vh[:r].conj().T / sv[:r]
    lifts it (m maps it onto u[:, :r]) and vh[r:].conj().T is an
    orthonormal basis of the kernel.  Raises OverflowError on a
    non-finite entry.  For an (N, ., .) stack every output gains a
    leading axis of length N, and r is an (N,) integer array.
    """
    m = _check_finite(np.asarray(m, dtype=complex))
    u, sv, vh = np.linalg.svd(m)
    r = _rank(sv)
    return u, sv, vh, int(r) if m.ndim == 2 else r

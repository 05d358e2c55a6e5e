"""Small dense complex linear algebra: 2x2 matrices, quadratics, and
the singular value decomposition that decides rank, image and kernel.

Everything here works on plain numpy arrays with dtype complex128.
All matrices in this project are tiny (at most 4x4); one LAPACK SVD
per matrix gives its rank, an image basis with a lift, and a kernel
basis, all under the one rank threshold RANK_RTOL on the singular
values, which are the matrix's conditioning.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DegenerateLeadingCoefficient, SingularMatrix

RANK_RTOL = 1e-9         # rank threshold, relative to max(1, largest sigma)
SINGULAR_TOL = 1e-12     # |det| below this means "singular" for 2x2 inverses

E2 = np.eye(2, dtype=complex)


def mat2(a11, a12, a21, a22) -> np.ndarray:
    """Build a 2x2 complex matrix from its entries."""
    return np.array([[a11, a12], [a21, a22]], dtype=complex)


def _check_finite(m: np.ndarray) -> np.ndarray:
    # count_nonzero is the cheapest exact test on these tiny arrays
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise OverflowError("non-finite entry in matrix result")
    return m


def det2(a: np.ndarray) -> complex:
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def mat2_inverse(a: np.ndarray, tol: float = SINGULAR_TOL) -> np.ndarray:
    """Inverse via the adjugate; raises SingularMatrix when |det| <= tol."""
    d = det2(a)
    if abs(d) <= tol:
        raise SingularMatrix(f"|det| = {abs(d):.3e} <= {tol:.1e}")
    return _check_finite(
        np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]], dtype=complex) / d
    )


def solve_quadratic(a: complex, b: complex, c: complex,
                    tol: float = 1e-12) -> tuple[complex, complex]:
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
        return _solve_quadratic_arrays(a, b, c, tol)
    if not all(cmath.isfinite(z) for z in (a, b, c)):
        raise OverflowError(f"non-finite coefficient in {(a, b, c)}")
    if abs(a) <= tol:
        raise DegenerateLeadingCoefficient(f"|a| = {abs(a):.3e} <= {tol:.1e}")
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


def _solve_quadratic_arrays(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                            tol: float) -> tuple[np.ndarray, np.ndarray]:
    """`solve_quadratic` on stacks: the same pairing, root by root."""
    # count_nonzero is the cheapest exact test on these short arrays
    if any(np.count_nonzero(np.isfinite(v)) != v.size for v in (a, b, c)):
        raise OverflowError("non-finite coefficient")
    small_a = np.abs(a) <= tol
    if np.count_nonzero(small_a):
        raise DegenerateLeadingCoefficient(
            f"|a| = {np.abs(a[small_a][0]):.3e} <= {tol:.1e}")
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


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Full singular value decomposition m = u diag(sv) vh (u and vh
    square unitary, sv descending) and the numerical rank r: the number
    of singular values above RANK_RTOL * max(1, sv_max).

    u[:, :r] is an orthonormal basis of the image, vh[:r].conj().T / sv[:r]
    lifts it (m maps it onto u[:, :r]) and vh[r:].conj().T is an
    orthonormal basis of the kernel.  Raises OverflowError on a
    non-finite entry.
    """
    u, sv, vh = np.linalg.svd(_check_finite(np.asarray(m, dtype=complex)))
    tol = RANK_RTOL * np.max(sv, initial=1.0)
    return u, sv, vh, int(np.count_nonzero(sv > tol))


def rank(m: np.ndarray) -> int:
    """Numerical rank (see `svd`); rank of an empty matrix is 0."""
    return svd(m)[3]

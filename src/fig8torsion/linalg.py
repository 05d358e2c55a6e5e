"""Small dense complex linear algebra: 2x2 matrices, quadratics, and
the singular values that decide rank and give an image basis.

Everything here works on plain numpy arrays with dtype complex128.
All matrices in this project are tiny (at most 4x4).  The numerical
rank is the count of singular values above the one threshold
RANK_RTOL, relative to the largest, which is the matrix's
conditioning.  `rank` reads the singular values alone; `svd` also
returns the reduced U and V^H, which give an image basis and its lift.

`det2`, `mat2_inverse`, `rank` and `svd` take an (N, ., .) stack of
matrices as well as a single matrix, and work item by item;
`solve_quadratic` takes arrays of coefficients.  `mat2_product` and
`mat2_power` work on 2x2 stacks held as one (2, 2, N) entry layout
(`mat2_entries`, `mat2_stack`): a product is one broadcast multiply and
one add, where numpy's `matmul` loops over the items of an (N, 2, 2)
stack at ~0.18 us per complex product.  Both are elementwise, so item
k gets the same bits at every N; the word products and powers built on
them (`words.word_product`, `surgery.relation_residuals`) run on entry
layouts at every stack length, one matrix included, and a one-point
re-check reproduces a stacked result bit for bit.

`svd` has two branches.  LAPACK (`np.linalg.svd`) runs one call per
item, ~5-7 us for a 2 x 4 matrix, while an elementwise numpy call on a
whole stack of a few hundred items costs ~1-3 us.  So a stack of at
least STACK_KERNEL_MIN_ITEMS matrices with two rows or two columns,
the shape of every boundary map of the exterior, torus and solid-torus
complexes, goes to `_jacobi_svd`: one-sided (Hestenes) Jacobi on the
two columns, about a hundred numpy calls on the whole stack whatever
its length (Demmel and Veselic, "Jacobi's method is more accurate than
QR", SIMAX 13, 1992).
Its two rotations keep the lift m V_r S_r^-1 = U_r to eps * kappa, as
LAPACK's; one rotation leaves it at eps * kappa^2 for a wide m.
Single matrices, short stacks and every other shape stay on LAPACK,
which computes the reduced factorization only, as does `rank`.
The same length picks `words.fox_blocks`' product kernel: `@` below
it, since one point (the `torsion` subcommand) runs ~10% faster end to
end on it, and entry layouts from it, not from the ~8 crossover, so
that `test_stacked_exterior_oracle_matches_items`' 41-point stack of
the exterior oracle takes its points' kernel.  One point of the
exterior oracle, given as two numbers, takes neither stack: it runs `@`
and one LAPACK SVD per boundary on 2-D matrices
(`formulas._exterior_torsion_one`), the operations of its stack of one,
whose bits it has.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DegenerateLeadingCoefficient, SingularMatrix

RANK_RTOL = 1e-9         # rank threshold, relative to max(1, largest sigma)
SINGULAR_TOL = 1e-12     # |det| below this means "singular" for 2x2 inverses
LEADING_TOL = 1e-12      # |a| below this: a z^2 + b z + c is not a quadratic
# the shortest stack that `svd` hands to `_jacobi_svd` and on which
# `words.fox_blocks` multiplies entry layouts; word products and
# matrix powers take no such switch, since their items must round alike
# at every N (see the module docstring).  Median us per call
# on stacks of N random matrices (2-core Xeon, Python 3.11.7, numpy
# 2.4.6, one BLAS thread).  SVD, kernel / LAPACK:
#   N        1       16       32       40       48      100      203
#   2x4   132/23  147/125  164/236  172/289  178/343  234/706  343/1409
#   4x2   129/22  146/114  164/214  171/265  176/312  235/641  333/1303
#   2x2   145/22  154/87   120/97   112/122  137/151  166/326  225/609
#   2x3    82/16  129/106  172/237  182/290  187/347  163/596  283/1050
#   3x2    93/17   96/73   148/186  136/189  155/227  215/563  301/1132
# 2 x 2 product and the Fox pass over the 10-letter relator, `matmul` /
# entry layout:
#   N          1        8       16       32       48      100      203
#   a @ b   1.1/1.9  2.6/2.0  4.1/2.2  6.9/2.2  9.8/2.5   19/3.2   37/4.4
#   Fox     16/27    31/31    45/32    75/35   101/37   195/44   378/62
# The SVD kernel wins on every shape from N = 40; 48 leaves a margin for
# the 2 x 2 maps, on which LAPACK is cheapest.  The Fox pass keeps `@`
# below 48 for one point's speed (see the module docstring).
STACK_KERNEL_MIN_ITEMS = 48
_TINY = np.finfo(float).tiny

E2 = np.eye(2, dtype=complex)
_ADJUGATE_SIGNS = np.array([[1, -1], [-1, 1]])


def _check_finite(m: np.ndarray) -> np.ndarray:
    # count_nonzero is the cheapest exact test on these tiny arrays
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise OverflowError("non-finite entry in matrix result")
    return m


def mat2_entries(m: np.ndarray) -> np.ndarray:
    """The contiguous (2, 2, N) entry layout of an (N, 2, 2) stack, [i, j]
    the items' (i, j) entries: a view when the stack is itself a view of
    a layout (`mat2_stack`, `riley.rep_stacks`), else a copy."""
    return np.ascontiguousarray(m.transpose(1, 2, 0))


def mat2_stack(entries: np.ndarray) -> np.ndarray:
    """The (N, 2, 2) stack of a (2, 2, N) entry layout, a view."""
    return entries.transpose(2, 0, 1)


def mat2_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a b of two (2, 2, N) entry layouts, one multiply and
    one add on the whole layout: entry (i, k) is a_i1 b_1k + a_i2 b_2k,
    elementwise, so item n gets the same bits whatever N is."""
    t = a[:, :, None] * b
    return t[:, 0] + t[:, 1]


def mat2_power(a: np.ndarray, k: int) -> np.ndarray:
    """a^k, k >= 0, for a (2, 2, N) entry layout, by squaring: the
    squares a^(2^i) of the set bits i of k multiplied on from the right
    in increasing i, with `mat2_product`; k = 0 gives E at every item."""
    if k == 0:
        return np.broadcast_to(E2[:, :, None], a.shape)
    power = None
    while True:
        if k & 1:
            power = a if power is None else mat2_product(power, a)
        k >>= 1
        if not k:
            return power
        a = mat2_product(a, a)


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


def _rotation(x: np.ndarray):
    """The unitary J = [[a, b], [-conj b, conj a]] that makes the columns
    [x[0] x[1]] J orthogonal with the larger first, as (N,) arrays a and
    b, and those columns; x[j] is the (N, n) stack of column j."""
    x0, x1 = x
    alpha, beta = np.vecdot(x, x).real
    gamma = np.vecdot(x0, x1)                     # x0^H x1
    diff = beta - alpha
    # the Jacobi rotation [[c, z], [-conj z, c]], z = c t e^{i arg gamma}:
    # t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)), zeta = diff / 2|gamma|,
    # is |gamma| q with q = 2 / (|diff| + hypot(diff, 2|gamma|)); q stays
    # finite where gamma = diff = 0 (t = 0, no rotation)
    g = np.abs(gamma)
    q = 2 / np.maximum(np.abs(diff) + np.hypot(diff, 2 * g), _TINY)
    c = 1 / np.hypot(1, g * q)
    z = np.copysign(c * q, diff) * gamma
    # |t| <= 1 keeps the larger column first iff diff < 0; else swap the
    # columns after it, J [[0, -1], [1, 0]] = [[z, -c], [c, conj z]]
    keep = np.signbit(diff)
    a, b = np.where(keep, c, z), np.where(keep, z, -c)
    ac, bc = a[:, None], b[:, None]
    return a, b, np.array([ac * x0 - bc.conj() * x1,
                           bc * x0 + ac.conj() * x1])


def _jacobi_svd(m: np.ndarray):
    """Reduced SVD (u, sv, vh) of an (N, n, 2) or (N, 2, n) stack by
    one-sided Jacobi on the two columns of m, or of m^H when m is wide:
    two rotations J_1 J_2 = V, then sigma the norms of the rotated
    columns and U the columns over sigma."""
    wide = m.shape[2] > 2
    # exact power-of-two scaling, largest entry of each item in [1/2, 1):
    # no Gram entry overflows or underflows
    _, e = np.frexp(np.abs(m).max(axis=(1, 2)))
    scale = np.ldexp(1.0, np.minimum(-e, 1023))
    ms = m * scale[:, None, None]
    # the columns of m, or of m^H, as a (2, N, n) stack
    x = ms.conj().transpose(1, 0, 2) if wide else ms.transpose(2, 0, 1)
    a1, b1, x = _rotation(x)
    # the second rotation takes the angle error of the first, eps kappa^2
    # in the lift m V_r S_r^-1 = U_r of a wide m, down to eps kappa
    a2, b2, x = _rotation(x)
    # V = J_1 J_2 = [[p, q], [-conj q, conj p]], v[i, j] the (N,) V_ij
    p, q = a1 * a2 - b1 * b2.conj(), a1 * b2 + b1 * a2.conj()
    v = np.array([[p, q], [-q.conj(), p.conj()]])
    sv = np.sqrt(np.vecdot(x, x).real)           # (2, N)
    # out of order only where the two sigma agree to rounding
    swap = sv[1] > sv[0]
    if swap.any():
        x[:, swap], sv[:, swap] = x[::-1, swap], sv[::-1, swap]
        v[:, :, swap] = v[:, ::-1, swap]
    x /= np.where(sv > 0, sv, 1.0)[..., None]    # a zero sigma: zero column
    sv /= scale
    if wide:        # m = V S U^H
        return v.transpose(2, 0, 1), sv.T, x.conj().transpose(1, 0, 2)
    return x.transpose(1, 2, 0), sv.T, v.conj().transpose(2, 1, 0)


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Reduced singular value decomposition m = u diag(sv) vh, with u
    (rows, k), sv descending (k,) and vh (k, cols) for k = min(rows,
    cols), and the numerical rank r: the number of singular values above
    RANK_RTOL * max(1, sv_max).

    u[:, :r] is an orthonormal basis of the image, and vh[:r].conj().T /
    sv[:r] lifts it (m maps it onto u[:, :r]).  Raises OverflowError on
    a non-finite entry.  For an (N, ., .) stack every output gains a
    leading axis of length N, and r is an (N,) integer array.

    An (N, ., .) stack with k = 2 and N >= STACK_KERNEL_MIN_ITEMS goes
    to the Jacobi kernel `_jacobi_svd`, anything else to LAPACK's
    reduced factorization.  On the kernel, sv agrees with LAPACK's to a
    few eps * sv_max, u and vh are orthonormal to a few eps, and the
    lift is consistent to a few eps * kappa (kappa = sv_max / sv_min),
    as on LAPACK.  A column of u whose singular value is 0 is zero on
    the kernel, and any unit vector orthogonal to the others on LAPACK.
    """
    m = _check_finite(np.asarray(m, dtype=complex))
    if (m.ndim == 3 and len(m) >= STACK_KERNEL_MIN_ITEMS
            and min(m.shape[1:]) == 2):
        u, sv, vh = _jacobi_svd(m)
    else:
        u, sv, vh = np.linalg.svd(m, full_matrices=False)
    r = _rank(sv)
    return u, sv, vh, int(r) if m.ndim == 2 else r

"""Torsion of a finite acyclic based chain complex over C.

The torsion is the alternating product over degrees i of the
determinants [b_i, lift(b_{i-1}) / c_i], where b_i is a basis of the
image of the (i+1)-st boundary map and c_i is the preferred (standard)
basis of C_i.  The exponent in degree i is (-1)^(i+1), so the one-map
complex 0 -> C --[2]--> C -> 0 has torsion 1/2; this convention
reproduces tau(solid torus) = 1/det(rho(l) - E).

The ranks are forced by the dims: in an acyclic complex rank d_1 =
dim C_0 and rank d_{i+1} = dim C_i - rank d_i, and the zero map out of
C_top has rank 0 exactly when the Euler characteristic vanishes.  So
dims that admit no acyclic complex raise NotAcyclic before any matrix
is looked at, and the singular values of each boundary map (one rank
threshold, see `linalg`) only have to confirm its forced rank.
`torsion` takes one reduced SVD per boundary map, which also gives the
image basis and its lift; on a long enough stack of maps with two rows
or two columns that SVD is `linalg`'s stacked Jacobi kernel, otherwise
LAPACK.  The determinants of the assembled 1 x 1 and 2 x 2 bases are
taken in closed form (`_det`), larger ones by LAPACK.  Median us per
call, closed form / LAPACK (2-core Xeon, numpy 2.4.6):
    N        1          20        203
    1x1   0.3/2.1   0.3/3.4   0.3/20
    2x2   2.0/2.1   1.7/4.7   2.1/33
The value does not depend on the choice of the b_i or of the lifts;
`torsion_with_basis_perturbation` verifies that with randomized
choices, one draw per degree, and ranks the drawn bases only: one that
falls short of its rank masks the item, with no second draw.

A complex may hold (N, ., .) stacks of boundary matrices, N complexes
with the same dims.  `torsion`, `is_acyclic` and
`torsion_with_basis_perturbation` then work item by item and mask a
non-acyclic item where a single complex raises NotAcyclic.
`torsion_with_basis_perturbation` draws every item's random bases from
one generator, item by item, so a stack that repeats a complex k times
checks k different choices of bases for it in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatch, NotAcyclic
from .linalg import _check_finite, det2, rank, svd

EPS = float(np.finfo(float).eps)
DDZERO_RTOL = 1e-10      # tolerance on d o d = 0, relative to max entry
# a d o d residual within this many n * eps * max|d_i| * max|d_{i+1}| (n the
# inner dimension) is the rounding error of the product itself: the entries
# are too large for double precision, which is an overflow, not bad data
DDZERO_ROUNDING = 8


@dataclass(frozen=True)
class ChainComplex:
    """Based complex 0 -> C_m -> ... -> C_1 -> C_0 -> 0.

    dims[i] is dim C_i; boundaries[i] is the matrix of the map
    C_{i+1} -> C_i (dims[i] rows, dims[i+1] columns), so there are
    len(dims) - 1 boundary matrices.  The boundaries may instead all be
    (N, dims[i], dims[i+1]) stacks of one N: N complexes at once.
    """

    dims: tuple[int, ...]
    boundaries: tuple[np.ndarray, ...]

    @np.errstate(all="ignore")  # an overflow in d o d is raised, not warned
    def __post_init__(self):
        if len(self.dims) < 2:
            raise DimensionMismatch("a complex needs at least two dims")
        if len(self.boundaries) != len(self.dims) - 1:
            raise DimensionMismatch(
                f"{len(self.dims)} dims need {len(self.dims) - 1} boundary "
                f"maps, got {len(self.boundaries)}")
        lead = self.boundaries[0].shape[:-2]
        for i, b in enumerate(self.boundaries):
            if b.shape[:-2] != lead or len(lead) > 1:
                raise DimensionMismatch(
                    "boundaries are not all matrices or all stacks of one N")
            if b.shape[-2:] != (self.dims[i], self.dims[i + 1]):
                raise DimensionMismatch(
                    f"boundary {i + 1} has shape {b.shape[-2:]}, expected "
                    f"({self.dims[i]}, {self.dims[i + 1]})")
        stacks = self.stacks
        for i in range(len(stacks) - 1):
            lo, hi = stacks[i], stacks[i + 1]
            err = np.abs(_check_finite(lo @ hi)).max(axis=(1, 2), initial=0.0)
            # the scale is >= 1, so only an err above DDZERO_RTOL can fail
            if err.max(initial=0.0) <= DDZERO_RTOL:
                continue
            scale = np.ones(self.size)
            for b in stacks:
                scale = np.maximum(scale,
                                   np.abs(b).max(axis=(1, 2), initial=0.0))
            bad = err > DDZERO_RTOL * scale
            if bad.any():
                k = np.argmax(bad)
                rounding = (DDZERO_ROUNDING * lo.shape[2] * EPS
                            * np.abs(lo[k]).max() * np.abs(hi[k]).max())
                if err[k] <= rounding:
                    raise OverflowError(
                        f"d_{i + 1} o d_{i + 2} = 0 is lost to rounding: "
                        f"residual {err[k]:.3e}")
                raise DimensionMismatch(
                    f"d_{i + 1} o d_{i + 2} = 0 fails: residual {err[k]:.3e}")

    @property
    def stacked(self) -> bool:
        return self.boundaries[0].ndim == 3

    @property
    def stacks(self) -> tuple[np.ndarray, ...]:
        """The boundaries as (N, ., .) stacks; N = 1 for one complex."""
        if self.stacked:
            return self.boundaries
        return tuple(b[None] for b in self.boundaries)

    @property
    def size(self) -> int:
        """N, the number of complexes held; 1 for one complex."""
        return self.boundaries[0].shape[0] if self.stacked else 1


@dataclass(frozen=True)
class TorsionValue:
    """A torsion, or for a stack the (N,) torsions with the (N,) mask of
    acyclic items; a masked item's value is NaN."""

    value: Union[complex, np.ndarray]
    sign_ambiguous: bool = False
    acyclic: Union[bool, np.ndarray] = True


def stack_result(stacked: bool, tau: np.ndarray,
                 acyclic: np.ndarray) -> TorsionValue:
    """The TorsionValue of (N,) values and their acyclic mask: the
    stack itself, or for one item (stacked False) its value, raising
    NotAcyclic where the mask is False."""
    if stacked:
        return TorsionValue(np.where(acyclic, tau, np.nan), acyclic=acyclic)
    if not acyclic[0]:
        raise NotAcyclic("not acyclic")
    return TorsionValue(complex(tau[0]))


def _forced_ranks(dims) -> list[int]:
    """[rank d_1, ..., rank d_top] of an acyclic complex with these dims;
    NotAcyclic if they are not all >= 0 or the Euler characteristic is
    not 0 (the zero map C_{top+1} -> C_top would need a nonzero rank)."""
    ranks, r = [], 0
    for dim in dims:
        r = dim - r
        ranks.append(r)
    if ranks.pop():
        euler = sum((-1) ** i * dim for i, dim in enumerate(dims))
        raise NotAcyclic(f"Euler characteristic {euler} is not 0")
    if any(r < 0 for r in ranks):
        raise NotAcyclic(f"dims {dims} admit no exact complex")
    return ranks


def is_acyclic(c: ChainComplex):
    """True iff every d_i has its forced rank (`linalg.rank`), i.e.
    rank d_i + rank d_{i+1} = dim C_i in every degree; an (N,) mask for
    a stack, all False for dims that admit no exact complex."""
    acyclic = np.ones(c.size, dtype=bool)
    try:
        for d, r in zip(c.stacks, _forced_ranks(c.dims)):
            acyclic &= rank(d) == r
    except NotAcyclic:
        acyclic[:] = False
    return acyclic if c.stacked else bool(acyclic[0])


def _det(m: np.ndarray) -> np.ndarray:
    """The (N,) determinants of an (N, k, k) stack: in closed form for
    k = 1 and k = 2, from LAPACK for larger k."""
    if m.shape[-1] == 1:
        return m[:, 0, 0]
    if m.shape[-1] == 2:
        return det2(m)
    return np.linalg.det(m)


def _alternating_product(bases, lifts) -> tuple[np.ndarray, np.ndarray]:
    """bases[i]: (N, dim C_i, rank d_{i+1}) columns spanning Im d_{i+1}
    inside C_i, for i < top; lifts[i]: their preimages in C_{i+1}.
    Returns the (N,) alternating determinant products and the mask of
    items whose assembled bases are all nonsingular (the others divide
    by 0: callers ignore floating-point errors)."""
    # degree i: the basis of Im d_{i+1} beside the lift of that of Im d_i;
    # C_0 has no lift, and C_top no image (of the zero map out of C_{top+1})
    mats = [bases[0],
            *(np.concatenate(pair, axis=2) for pair in zip(bases[1:], lifts)),
            lifts[-1]]
    dets = np.array([_det(m) for m in mats])
    tau = dets[1::2].prod(axis=0) / dets[::2].prod(axis=0)
    return tau, (dets != 0).all(axis=0)


@np.errstate(all="ignore")   # a non-acyclic item may divide by 0; masked
def torsion(c: ChainComplex) -> TorsionValue:
    """Torsion from one reduced SVD d_{i+1} = U S V^H per boundary (see
    `linalg.svd`): the image basis in C_i is U_r (orthonormal, r the
    forced rank of d_{i+1}) and its lift to C_{i+1} is V_r S_r^-1.  For
    a stack, value and acyclic are (N,) arrays (see `TorsionValue`)."""
    acyclic = np.ones(c.size, dtype=bool)
    bases, lifts = [], []
    for d, r in zip(c.stacks, _forced_ranks(c.dims)):
        u, sv, vh, found = svd(d)
        acyclic &= found == r
        bases.append(u[:, :, :r])
        lifts.append(vh[:, :r].conj().mT / sv[:, None, :r])
    tau, nonsingular = _alternating_product(bases, lifts)
    return stack_result(c.stacked, tau, acyclic & nonsingular)


@np.errstate(all="ignore")   # a masked item may divide by 0
def torsion_with_basis_perturbation(c: ChainComplex, seed) -> TorsionValue:
    """Same torsion, but with randomized image bases b = d_{i+1} g and
    randomized lifts g + d_{i+2} h; agreement with `torsion` exercises
    choice independence.  The shift d_{i+2} h lies in ker d_{i+1}, which
    is im d_{i+2} in an exact complex; the top map is injective, so its
    lift is g alone.  seed is an int or a Generator; every item draws
    its own g and h from that one stream, one g per degree.  An item
    whose b falls short of its forced rank r_i is masked (NotAcyclic for
    one complex).  Only the b are ranked, from their singular values:
    with d o d = 0, rank b_i <= rank d_{i+1} <= dim C_{i+1} - rank
    b_{i+1}, so b of their forced ranks force every boundary's rank."""
    acyclic = np.ones(c.size, dtype=bool)
    rng = np.random.default_rng(seed)
    stacks = c.stacks
    bases, lifts = [], []
    for i, (d, r) in enumerate(zip(stacks, _forced_ranks(c.dims))):
        shape = (c.size, d.shape[2], r)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = d @ g
        acyclic &= rank(b) == r
        if i + 1 < len(stacks):
            nxt = stacks[i + 1]
            shape = (c.size, nxt.shape[2], r)
            h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            g = g + nxt @ h
        bases.append(b)
        lifts.append(g)
    tau, nonsingular = _alternating_product(bases, lifts)
    return stack_result(c.stacked, tau, acyclic & nonsingular)

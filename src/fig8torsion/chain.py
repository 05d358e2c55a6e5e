"""Torsion of a finite acyclic based chain complex over C.

The torsion is the alternating product over degrees i of the
determinants [b_i, lift(b_{i-1}) / c_i], where b_i is a basis of the
image of the (i+1)-st boundary map and c_i is the preferred (standard)
basis of C_i.  The exponent in degree i is (-1)^(i+1), so the one-map
complex 0 -> C --[2]--> C -> 0 has torsion 1/2; this convention
reproduces tau(solid torus) = 1/det(rho(l) - E).

Ranks, image bases and lifts all come from one singular value
decomposition per boundary map (`linalg.svd`, one rank threshold).
The value does not depend on the choice of the b_i or of the lifts;
`torsion_with_basis_perturbation` verifies that with randomized choices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAcyclic
from .linalg import _check_finite, rank, svd

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
    len(dims) - 1 boundary matrices.
    """

    dims: tuple[int, ...]
    boundaries: tuple[np.ndarray, ...]

    @np.errstate(all="ignore")  # an overflow in d o d is raised, not warned
    def __post_init__(self):
        if len(self.boundaries) != len(self.dims) - 1:
            raise DimensionMismatch(
                f"{len(self.dims)} dims need {len(self.dims) - 1} boundary "
                f"maps, got {len(self.boundaries)}")
        for i, b in enumerate(self.boundaries):
            if b.shape != (self.dims[i], self.dims[i + 1]):
                raise DimensionMismatch(
                    f"boundary {i + 1} has shape {b.shape}, expected "
                    f"({self.dims[i]}, {self.dims[i + 1]})")
        scale = max([1.0] + [float(np.max(np.abs(b))) for b in self.boundaries
                             if b.size])
        for i in range(len(self.boundaries) - 1):
            lo, hi = self.boundaries[i], self.boundaries[i + 1]
            if lo.size and hi.size:
                err = float(np.max(np.abs(_check_finite(lo @ hi))))
                if err > DDZERO_RTOL * scale:
                    rounding = (DDZERO_ROUNDING * lo.shape[1] * EPS
                                * np.max(np.abs(lo)) * np.max(np.abs(hi)))
                    if err <= rounding:
                        raise OverflowError(
                            f"d_{i + 1} o d_{i + 2} = 0 is lost to rounding: "
                            f"residual {err:.3e}")
                    raise DimensionMismatch(
                        f"d_{i + 1} o d_{i + 2} = 0 fails: residual {err:.3e}")

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def boundary(self, i: int) -> np.ndarray:
        """Matrix of d_i : C_i -> C_{i-1}; zero map outside 1..top."""
        if 1 <= i <= self.top:
            return self.boundaries[i - 1]
        if i == 0:
            return np.zeros((0, self.dims[0]), dtype=complex)
        return np.zeros((self.dims[self.top], 0), dtype=complex)


@dataclass(frozen=True)
class TorsionValue:
    value: complex
    sign_ambiguous: bool = False


def _svds(c: ChainComplex) -> list:
    # svds[i] = svd of d_{i+1} : C_{i+1} -> C_i for i in 0..top (the last
    # is the zero map from C_{top+1} = 0)
    return [svd(c.boundary(i)) for i in range(1, c.top + 2)]


def _acyclic(c: ChainComplex, svds: list) -> bool:
    r = [0] + [s[3] for s in svds]      # r[i] = rank d_i
    return all(r[i] + r[i + 1] == c.dims[i] for i in range(c.top + 1))


def is_acyclic(c: ChainComplex) -> bool:
    """True iff rank d_i + rank d_{i+1} = dim C_i in every degree."""
    return _acyclic(c, _svds(c))


def _alternating_product(c: ChainComplex, bases, lifts) -> complex:
    """bases[i]: columns spanning Im d_{i+1} inside C_i; lifts[i]: their
    preimages in C_{i+1}.  Returns the alternating determinant product."""
    tau = 1.0 + 0.0j
    for i in range(c.top + 1):
        cols = [bases[i]] if bases[i].size else []
        if i >= 1 and lifts[i - 1].size:
            cols.append(lifts[i - 1])
        m = np.hstack(cols) if cols else np.zeros((c.dims[i], 0), dtype=complex)
        if m.shape[0] != m.shape[1]:
            raise NotAcyclic(
                f"degree {i}: assembled basis is {m.shape}, not square")
        d = np.linalg.det(m) if m.size else 1.0 + 0.0j
        if abs(d) == 0.0:
            raise NotAcyclic(f"degree {i}: assembled basis is singular")
        tau = tau * d if (i + 1) % 2 == 0 else tau / d
    return complex(tau)


def torsion(c: ChainComplex) -> TorsionValue:
    """Torsion from one SVD d_{i+1} = U S V^H per boundary: the image
    basis in C_i is U_r (orthonormal, r = rank d_{i+1}) and its lift to
    C_{i+1} is V_r S_r^-1."""
    svds = _svds(c)
    if not _acyclic(c, svds):
        raise NotAcyclic("homology does not vanish")
    bases = [u[:, :r] for u, _, _, r in svds]
    lifts = [vh[:r].conj().T / sv[:r] for _, sv, vh, r in svds]
    return TorsionValue(_alternating_product(c, bases, lifts))


def torsion_with_basis_perturbation(c: ChainComplex,
                                    seed: int) -> TorsionValue:
    """Same torsion, but with randomized image bases and randomized lift
    representatives; agreement with `torsion` exercises choice
    independence."""
    svds = _svds(c)
    if not _acyclic(c, svds):
        raise NotAcyclic("homology does not vanish")
    rng = np.random.default_rng(seed)
    bases, lifts = [], []
    for i, (_, _, vh, r) in enumerate(svds):
        d_next = c.boundary(i + 1)
        dim_src = d_next.shape[1]
        for _ in range(50):
            g = rng.normal(size=(dim_src, r)) + 1j * rng.normal(size=(dim_src, r))
            b = d_next @ g
            if r == 0 or rank(b) == r:
                break
        else:
            raise NotAcyclic("could not draw a full-rank random image basis")
        ker = vh[r:].conj().T
        lift = g
        if ker.size and r:
            shift = rng.normal(size=(ker.shape[1], r)) \
                + 1j * rng.normal(size=(ker.shape[1], r))
            lift = g + ker @ shift
        bases.append(b)
        lifts.append(lift)
    return TorsionValue(_alternating_product(c, bases, lifts))

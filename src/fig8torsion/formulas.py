"""Closed-form Reidemeister torsions for surgeries on the figure-eight
knot, and the chain-complex / Fox-calculus oracles that cross-check them.

Closed forms, with u = tr(rho(x)) = s + 1/s:

    tau(exterior)      = -2(u - 1)
    tau(glued torus)   = 1/(2 - tr rho(l)) = -1/(u^2 (u^2 - 5))
    tau(surgered M)    = 2(u - 1) / (u^2 (u^2 - 5))

The exterior oracle is the torsion of the twisted presentation
2-complex of <x, y | w x w^-1 y^-1>, built from Fox derivatives; it
pins the closed form down up to sign.  Both derivatives of the relator
are evaluated in one prefix pass over it (`words.fox_blocks`).  Whether
a point is acyclic is the chain torsion's one rule (forced ranks,
nonsingular bases); comparing the value with the closed form is left
to `full_report` and to `verify`.

A variety point is two numbers (s, t), N points two (N,) arrays.
`presentation_complex`, the exterior and solid-torus oracles (given
arrays s and t) and `torus_torsion_oracle` (given (N, 2, 2) stacks)
work on N points at once through the stacked chain torsion; a
non-acyclic item is masked in the result, where the call on one point
raises NotAcyclic.  The exterior oracle at one point (two numbers)
skips the stack: `_exterior_torsion_one` runs the stacked path's numpy
operations on that point's 2-D matrices, without the stack's masks
and validation, so its value has the bits of the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .chain import DDZERO_RTOL, EPS, ChainComplex, TorsionValue, torsion
from .errors import DegenerateU, NotAcyclic
from .linalg import E2, _rank, det2
from .riley import (RileyPoint, RELATOR, complex_csv, complex_json,
                    longitude_matrix_word, rep_stacks, riley_poly, trace_l,
                    trace_l_scale, trace_u, variety_membership)
from .words import X, Y, fox_blocks, fox_jacobian, parse_word

# |u^2 (u^2 - 5)| below this is degenerate; on the variety that is
# |2 - tr rho(l)| (`verify`'s trace identity), so the trace form too
DEGENERATE_TOL = 1e-8
COMPARE_TOL = 1e-8       # relative gap up to which a report check passes

_COMMUTATOR = parse_word("xyXY")
_PRESENTATION_DIMS = (2, 4, 2)


def torsion_exterior_closed(u: complex) -> complex:
    """tau of the knot exterior: -2(u - 1)."""
    return -2 * (u - 1)


def degenerate(u):
    """Whether |u^2 (u^2 - 5)| <= DEGENERATE_TOL, where the closed forms
    in u raise DegenerateU; for an array u, item by item."""
    return abs(u * u * (u * u - 5)) <= DEGENERATE_TOL


def _refuse_near_zero(x, error, name: str):
    """x, a number or an array; raises error, naming the first |x|, if
    |x| or some item's is within DEGENERATE_TOL of 0."""
    bad = abs(x) <= DEGENERATE_TOL   # a bool for one number: no numpy call
    if bad is not False and np.count_nonzero(bad):
        raise error(f"|{name}| = {np.extract(bad, abs(x))[0]:.3e}")
    return x


def _denominator(u):
    """u^2 (u^2 - 5), item by item for an array u; raises DegenerateU,
    naming the first |u^2 (u^2 - 5)|, if u or some item is `degenerate`."""
    return _refuse_near_zero(u * u * (u * u - 5), DegenerateU, "u^2(u^2-5)")


def torsion_solid_torus_closed(u):
    """tau of the reglued solid torus, -1/(u^2 (u^2 - 5)), at u or at each
    item of an array u; raises DegenerateU near the degenerate locus."""
    return -1 / _denominator(u)


def torsion_surgered(u):
    """tau of the surgered manifold, 2(u - 1)/(u^2 (u^2 - 5)), at u or at
    each item of an array u; raises DegenerateU near the degenerate locus."""
    return 2 * (u - 1) / _denominator(u)


def torsion_solid_torus_from_trace(s, t):
    """tau of the solid torus via 1/(2 - tr rho(l)) with the closed-form
    longitude trace, at (s, t) or at each item of arrays s and t of one
    shape; raises NotAcyclic, naming the first |2 - tr rho(l)| within
    DEGENERATE_TOL of the pole."""
    return 1 / _refuse_near_zero(2 - trace_l(s, t), NotAcyclic,
                                 "2 - tr rho(l)")


def _presentation_boundaries(imgx, imgy, drdx, drdy):
    """(d_1, d_2) of `presentation_complex`, for 2x2 matrices or for
    (N, 2, 2) stacks of them."""
    d2 = np.concatenate([drdx.mT, drdy.mT], axis=-2)       # C2 (2) -> C1 (4)
    d1 = np.concatenate([(imgx - E2).mT, (imgy - E2).mT],
                        axis=-1)                           # C1 (4) -> C0 (2)
    return d1, d2


def presentation_complex(imgx: np.ndarray, imgy: np.ndarray,
                         drdx: np.ndarray, drdy: np.ndarray) -> ChainComplex:
    """Twisted chain complex of a one-relator presentation on x, y, or
    the stack of N of them for (N, 2, 2) stacks of images and blocks.

    Chains carry the transposed block matrices so that the fundamental
    Fox identity sum_g Phi(dr/dg) (Phi(g) - E) = 0 becomes d1 o d2 = 0.
    """
    return ChainComplex(dims=_PRESENTATION_DIMS,
                        boundaries=_presentation_boundaries(imgx, imgy,
                                                            drdx, drdy))


def torsion_exterior_oracle(s, t) -> TorsionValue:
    """Torsion of the knot-exterior presentation complex at the point
    (s, t), or at each point of (N,) arrays s and t (see `TorsionValue`).

    An item is acyclic when `chain.torsion` finds it so: every boundary
    has its forced rank and the assembled bases are nonsingular.  The
    result is only defined up to sign, so sign_ambiguous is set.  A
    point off the variety, by |R12(s, t)|, raises NotAcyclic, in a stack
    too.  Arrays take the stacked chain torsion; one point, given as two
    numbers, takes `_exterior_torsion_one`, the same numpy operations on
    2-D matrices, whose value has the bits of the stack of that point."""
    residual = np.abs(riley_poly(s, t))
    off = ~variety_membership(s, t, residual)
    if np.count_nonzero(off):
        raise NotAcyclic("(s, t) is not a homomorphism: "
                         f"|R12| = {np.extract(off, residual)[0]:.3e}")
    imgs = rep_stacks(s, t)
    if np.ndim(s) == 0:
        return _exterior_torsion_one({a: m[0] for a, m in imgs.items()})
    chain = torsion(presentation_complex(imgs[X], imgs[Y],
                                         *fox_blocks(RELATOR, imgs)))
    return replace(chain, sign_ambiguous=True)


# an overflow is raised, not warned; a non-acyclic point may divide by 0
@np.errstate(all="ignore")
def _exterior_torsion_one(imgs: dict) -> TorsionValue:
    """`torsion_exterior_oracle` at one point, given its 2x2 images: the
    numpy operations that `chain.torsion` runs on the item of a stack of
    one, on 2-D matrices, so the value has that item's bits.  Both forced
    ranks are 2, the full rank of either boundary, so the image bases
    are the whole U and the lifts V S^-1.  The d o d rule stays with
    `ChainComplex`, which gets the boundaries when |d_1 d_2| exceeds its
    first test, DDZERO_RTOL, and raises or passes them."""
    d1, d2 = _presentation_boundaries(imgs[X], imgs[Y],
                                      *fox_blocks(RELATOR, imgs))
    if not np.abs(d1 @ d2).max() <= DDZERO_RTOL:     # a NaN goes on too
        ChainComplex(dims=_PRESENTATION_DIMS, boundaries=(d1, d2))
    u1, sv1, vh1 = np.linalg.svd(d1, full_matrices=False)
    u2, sv2, vh2 = np.linalg.svd(d2, full_matrices=False)
    lift1, lift2 = vh1.conj().T / sv1, vh2.conj().T / sv2
    # degree 0: the image of d_1; 1: that of d_2 beside the lift of d_1's;
    # 2: the lift of d_2's
    dets = np.array([det2(u1),
                     np.linalg.det(np.concatenate([u2, lift1], axis=1)),
                     det2(lift2)])
    if _rank(sv1) != 2 or _rank(sv2) != 2 or not dets.all():
        raise NotAcyclic("not acyclic")
    return TorsionValue(complex(dets[1::2].prod() / dets[::2].prod()),
                        sign_ambiguous=True)


def torsion_solid_torus_oracle(s, t) -> TorsionValue:
    """Circle complex 0 -> C1 --Phi(l - 1)--> C0 -> 0 for the core of
    the glued solid torus, fed to the chain-torsion module, at (s, t) or
    at each point of (N,) arrays s and t (see `TorsionValue`)."""
    ml = longitude_matrix_word(s, t)
    return torsion(ChainComplex(dims=(2, 2), boundaries=((ml - E2).mT,)))


def torus_torsion_oracle(imga: np.ndarray, imgb: np.ndarray) -> TorsionValue:
    """Torsion of the twisted torus presentation complex (relator the
    commutator a b a^-1 b^-1) for commuting images, or for each item of
    (N, 2, 2) stacks of them; |tau| = 1 whenever some peripheral trace
    differs from 2."""
    drdx, drdy = fox_jacobian(_COMMUTATOR, imga, imgb)
    val = torsion(presentation_complex(imga, imgb, drdx, drdy))
    return replace(val, sign_ambiguous=True)


@dataclass
class TorsionReport:
    """All five torsion quantities at one variety point, plus the
    pairwise consistency flags.  Entries that cannot be computed
    (non-acyclic or degenerate input) are None with an annotation."""

    u: complex
    tau_exterior_closed: Optional[complex] = None
    tau_exterior_oracle: Optional[TorsionValue] = None
    tau_solid_closed: Optional[complex] = None
    tau_solid_trace: Optional[complex] = None
    tau_surgered: Optional[complex] = None
    flags: dict = field(default_factory=dict)
    annotations: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return bool(self.flags) and all(v == "pass"
                                        for v in self.flags.values())

    def to_json(self) -> dict:
        oracle = self.tau_exterior_oracle
        return {
            "u": complex_json(self.u),
            "tau_exterior_closed": complex_json(self.tau_exterior_closed),
            "tau_exterior_oracle": None if oracle is None else {
                **complex_json(oracle.value),
                "sign_ambiguous": oracle.sign_ambiguous},
            "tau_solid_closed": complex_json(self.tau_solid_closed),
            "tau_solid_trace": complex_json(self.tau_solid_trace),
            "tau_surgered": complex_json(self.tau_surgered),
            "flags": dict(self.flags),
            "annotations": list(self.annotations),
        }

    def to_csv_row(self) -> str:
        oracle = self.tau_exterior_oracle
        cells = [complex_csv(z) for z in (
            self.u, self.tau_exterior_closed,
            None if oracle is None else oracle.value,
            self.tau_solid_closed, self.tau_solid_trace, self.tau_surgered)]
        cells += [";".join(f"{k}={v}" for k, v in sorted(self.flags.items())),
                  ";".join(self.annotations)]
        return ",".join(cells)


REPORT_CSV_HEADER = ("u_re,u_im,tauext_re,tauext_im,oracle_re,oracle_im,"
                     "tausolid_re,tausolid_im,tautrace_re,tautrace_im,"
                     "tauM_re,tauM_im,flags,annotations")


def full_report(p: RileyPoint) -> TorsionReport:
    """Evaluate every torsion quantity at p and cross-check, to a relative
    gap of COMPARE_TOL: closed-vs-oracle (up to sign), trace-form vs
    u-form for the solid torus (plus their rounding bound), and the
    product identity for tau(M), taken only where the oracle has a value."""
    u = trace_u(p.s)
    rep = TorsionReport(u=u)
    rep.tau_exterior_closed = torsion_exterior_closed(u)

    try:
        rep.tau_exterior_oracle = torsion_exterior_oracle(p.s, p.t)
    except NotAcyclic:
        rep.annotations.append("exterior-non-acyclic")
    try:
        rep.tau_solid_trace = torsion_solid_torus_from_trace(p.s, p.t)
    except NotAcyclic:
        rep.annotations.append("solid-torus-non-acyclic")
    try:
        rep.tau_solid_closed = torsion_solid_torus_closed(u)
        if rep.tau_exterior_oracle is not None:
            rep.tau_surgered = torsion_surgered(u)
    except DegenerateU:
        rep.annotations.append("degenerate")

    def relerr(a, b):
        return abs(a - b) / max(1.0, abs(a), abs(b))

    if rep.tau_exterior_oracle is not None:
        ok = relerr(abs(rep.tau_exterior_oracle.value),
                    abs(rep.tau_exterior_closed)) <= COMPARE_TOL
        rep.flags["exterior_oracle_abs"] = "pass" if ok else "fail"
    else:
        rep.flags["exterior_oracle_abs"] = "skipped"

    if rep.tau_solid_trace is not None and rep.tau_solid_closed is not None:
        # Near u^2 = 5 both forms divide by a cancelled difference.  Each
        # denominator passes at most 14 roundings on a path from s or t (a
        # complex product counts 2, a quotient 4), so it is off by at most
        # gamma_16 = 8 eps times its terms' moduli (Higham, ch. 3, first
        # order, 2 to spare for 1/x); |tau_solid_closed| makes it relative.
        scale = trace_l_scale(p.s, p.t) + abs(u) ** 4 + 5 * abs(u) ** 2
        tol = COMPARE_TOL + 8 * EPS * scale * abs(rep.tau_solid_closed)
        ok = relerr(rep.tau_solid_trace, rep.tau_solid_closed) <= tol
        rep.flags["solid_trace_vs_u"] = "pass" if ok else "fail"
    else:
        rep.flags["solid_trace_vs_u"] = "skipped"

    if rep.tau_surgered is not None and rep.tau_solid_closed is not None:
        prod = rep.tau_exterior_closed * rep.tau_solid_closed
        ok = relerr(rep.tau_surgered, prod) <= COMPARE_TOL
        rep.flags["product_identity"] = "pass" if ok else "fail"
    else:
        rep.flags["product_identity"] = "skipped"

    if "solid-torus-non-acyclic" in rep.annotations \
            or "exterior-non-acyclic" in rep.annotations:
        rep.annotations.append("non-acyclic")
    return rep

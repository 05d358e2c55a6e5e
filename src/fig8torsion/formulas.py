"""Closed-form Reidemeister torsions for surgeries on the figure-eight
knot, and the chain-complex / Fox-calculus oracles that cross-check them.

Closed forms, with u = tr(rho(x)) = s + 1/s:

    tau(exterior)      = -2(u - 1)
    tau(glued torus)   = 1/(2 - tr rho(l)) = -1/(u^2 (u^2 - 5))
    tau(surgered M)    = 2(u - 1) / (u^2 (u^2 - 5))

The exterior oracle is the torsion of the twisted presentation
2-complex of <x, y | w x w^-1 y^-1>, built from Fox derivatives; it
pins the closed form down up to sign.  Both derivatives of the relator
are evaluated in one prefix pass over it (`words.fox_blocks`).

`presentation_complex`, `torsion_exterior_oracle` (given a sequence of
points) and `torus_torsion_oracle` (given (N, 2, 2) stacks) work on N
points at once through the stacked chain torsion; a non-acyclic item
is masked in the result, where the call on one point raises NotAcyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .chain import ChainComplex, TorsionValue, stack_result, torsion
from .errors import DegenerateU, NotAcyclic
from .linalg import E2, det2
from .riley import (RileyPoint, RELATOR, complex_csv, complex_json,
                    longitude_matrix_word, point_arrays, rep_stacks, trace_l,
                    trace_u, variety_membership)
from .words import X, Y, fox_blocks, fox_jacobian, parse_word

DEGENERATE_TOL = 1e-8    # |u^2 (u^2 - 5)| below this is degenerate
NONACYCLIC_TOL = 1e-8    # |2 - tr rho(l)| below this is non-acyclic
COMPARE_TOL = 1e-8       # relative gap up to which a report check passes
ROUTES_TOL = 1e-6        # relative |tau| gap between the two exterior routes

_COMMUTATOR = parse_word("xyXY")


def torsion_exterior_closed(u: complex) -> complex:
    """tau of the knot exterior: -2(u - 1)."""
    return -2 * (u - 1)


def _denominator(u: complex) -> complex:
    """u^2 (u^2 - 5); raises DegenerateU within DEGENERATE_TOL of 0."""
    denom = u * u * (u * u - 5)
    if abs(denom) <= DEGENERATE_TOL:
        raise DegenerateU(f"|u^2(u^2-5)| = {abs(denom):.3e}")
    return denom


def torsion_solid_torus_closed(u: complex) -> complex:
    """tau of the reglued solid torus as a function of u:
    -1/(u^2 (u^2 - 5)); raises DegenerateU near the degenerate locus."""
    return -1 / _denominator(u)


def torsion_surgered(u: complex) -> complex:
    """tau of the surgered manifold: 2(u - 1)/(u^2 (u^2 - 5)); raises
    DegenerateU near the degenerate locus."""
    return 2 * (u - 1) / _denominator(u)


def torsion_solid_torus_from_trace(p: RileyPoint) -> complex:
    """tau of the solid torus via 1/(2 - tr rho(l)) with the closed-form
    longitude trace."""
    gap = 2 - trace_l(p.s, p.t)
    if abs(gap) <= NONACYCLIC_TOL:
        raise NotAcyclic(f"|2 - tr rho(l)| = {abs(gap):.3e}")
    return 1 / gap


def presentation_complex(imgx: np.ndarray, imgy: np.ndarray,
                         drdx: np.ndarray, drdy: np.ndarray) -> ChainComplex:
    """Twisted chain complex of a one-relator presentation on x, y, or
    the stack of N of them for (N, 2, 2) stacks of images and blocks.

    Chains carry the transposed block matrices so that the fundamental
    Fox identity sum_g Phi(dr/dg) (Phi(g) - E) = 0 becomes d1 o d2 = 0.
    """
    d2 = np.concatenate([drdx.mT, drdy.mT], axis=-2)       # C2 (2) -> C1 (4)
    d1 = np.concatenate([(imgx - E2).mT, (imgy - E2).mT],
                        axis=-1)                           # C1 (4) -> C0 (2)
    return ChainComplex(dims=(2, 4, 2), boundaries=(d1, d2))


def torsion_exterior_oracle(p) -> TorsionValue:
    """Torsion of the knot-exterior presentation complex at a point p,
    or at each point of a sequence p of N points (see `TorsionValue`).

    Computed twice: as the torsion of the full 3-term complex, and as
    the determinant ratio det Phi(dr/dy) / det Phi(x - 1).  The two must
    agree up to sign; an item where they do not is not acyclic.  The
    result is only defined up to sign, so sign_ambiguous is set.  A
    point off the variety raises NotAcyclic, for a sequence too.
    """
    s, t, residual = point_arrays([p] if isinstance(p, RileyPoint) else p)
    on = variety_membership(s, t, residual)
    if not on.all():
        raise NotAcyclic(
            f"(s, t) is not a homomorphism: |R12| = {residual[~on][0]:.3e}")
    imgs = rep_stacks(s, t)
    mx, my = imgs[X], imgs[Y]
    phix, phiy = fox_blocks(RELATOR, imgs)
    chain = torsion(presentation_complex(mx, my, phix, phiy))
    acyclic = chain.acyclic.copy()   # False at the u -> 1 zeros
    denom, num = det2(mx - E2), det2(phiy)   # denom equals 2 - u
    # away from the parabolic meridian the determinant ratio is an
    # independent second route; the two must agree up to sign
    far = acyclic & (np.abs(denom) > NONACYCLIC_TOL)
    ratio = np.abs(num[far] / denom[far])
    acyclic[far] = (np.abs(np.abs(chain.value[far]) - ratio)
                    <= ROUTES_TOL * np.maximum(1.0, ratio))
    return stack_result(not isinstance(p, RileyPoint), chain.value, acyclic,
                        sign_ambiguous=True)


def torsion_solid_torus_oracle(p: RileyPoint) -> TorsionValue:
    """Circle complex 0 -> C1 --Phi(l - 1)--> C0 -> 0 for the core of
    the glued solid torus, fed to the chain-torsion module."""
    ml = longitude_matrix_word(p)
    cx = ChainComplex(dims=(2, 2), boundaries=((ml - E2).T,))
    return torsion(cx)


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
    (non-acyclic or degenerate input) are None with an annotation;
    tau_surgered_reported applies the convention tau = 0 for
    non-acyclic representations."""

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

    @property
    def tau_surgered_reported(self) -> complex:
        """tau(M) with the reporting convention: 0 when non-acyclic."""
        if any(a.endswith("non-acyclic") for a in self.annotations):
            return 0.0 + 0.0j
        return self.tau_surgered if self.tau_surgered is not None else complex("nan")

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
    u-form for the solid torus, and the product identity for tau(M)."""
    u = trace_u(p.s)
    rep = TorsionReport(u=u)
    rep.tau_exterior_closed = torsion_exterior_closed(u)

    try:
        rep.tau_exterior_oracle = torsion_exterior_oracle(p)
    except NotAcyclic:
        rep.annotations.append("exterior-non-acyclic")
    try:
        rep.tau_solid_trace = torsion_solid_torus_from_trace(p)
    except NotAcyclic:
        rep.annotations.append("solid-torus-non-acyclic")
    try:
        rep.tau_solid_closed = torsion_solid_torus_closed(u)
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
        ok = relerr(rep.tau_solid_trace, rep.tau_solid_closed) <= COMPARE_TOL
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
        if "non-acyclic" not in rep.annotations:
            rep.annotations.append("non-acyclic")
    return rep

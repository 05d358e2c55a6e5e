"""Exact enumeration of the representations that extend over a
p/q-surgered manifold, i.e. variety points where rho(x)^p rho(l)^q = E.

On the variety the meridian eigenvalue s and the aligned longitude
eigenvalue lambda = l11 satisfy the figure-eight A-polynomial
(Cooper-Culler-Gillet-Long-Shalen, Invent. Math. 118, 1994)

    lambda + 1/lambda = s^4 - s^2 - 2 - s^-2 + s^-4.

As gcd(p, q) = 1, every solution of s^p lambda^q = 1 is s = z^q,
lambda = z^-p, so the surgery relation becomes the integer Laurent
polynomial

    f(z) = z^p + z^-p - (z^4q - z^2q - 2 - z^-2q + z^-4q)

and its roots are all the candidates.  f is the same for p/q and -p/q,
and z and 1/z give the same character; every candidate is re-verified
against the authoritative matrix residual ||rho(x)^p rho(l)^q - E||
before being reported.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateU, InvalidSlope, OffVariety
from .linalg import E2, mat2_inverse
from .riley import (RileyPoint, longitude_l11, longitude_matrix_closed,
                    longitude_matrix_word, longitude_trace, make_point,
                    rep_matrices, solve_t, trace_u)
from .formulas import torsion_surgered

L21_TOL = 1e-8
PARABOLIC_TOL = 1e-6     # |s^2 - 1| below this: eigenvalue eqn degenerates
DEGENERATE_U2_TOL = 1e-6  # |u^2 - 5| annotation threshold
# s = +-i (u = 0, lambda = 1; slopes with 4 | p): z is a double root of f,
# which np.roots gives only to ~1e-8; polish it on f', where it is simple
DOUBLE_ROOT_TOL = 1e-6    # |s^2 + 1| below this
# u = +-1 (lambda = -1) and u^2 = 5 (lambda = 1, t = 0): s is a branch
# point of solve_t, whose square root is then good only to ~1e-8; where the
# two t-branches meet, take t from l11 reduced modulo R12 instead
BRANCH_POINT_TOL = 1e-6   # |t+ - t-| below this

CSV_HEADER = ("s_re,s_im,t_re,t_im,branch,u_re,u_im,trl_re,trl_im,"
              "lambda_re,lambda_im,tau_re,tau_im,res_variety,res_relation,"
              "flags")


@dataclass(frozen=True)
class SurgerySlope:
    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise InvalidSlope("slope (0, 0)")
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise InvalidSlope(f"gcd(|{self.p}|, |{self.q}|) != 1")


@dataclass
class SurgerySolution:
    point: RileyPoint
    u: complex
    trace_l: complex
    lam: complex             # aligned longitude eigenvalue l11
    relation_residual: float
    torsion: complex | None
    flags: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        def cx(z):
            return None if z is None else {"re": z.real, "im": z.imag}
        return {"point": self.point.to_json(), "u": cx(self.u),
                "trace_l": cx(self.trace_l), "lambda": cx(self.lam),
                "relation_residual": self.relation_residual,
                "torsion": cx(self.torsion), "flags": list(self.flags)}

    def to_csv_row(self) -> str:
        def f(v):
            return f"{v:.17g}"
        tau_re = f(self.torsion.real) if self.torsion is not None else ""
        tau_im = f(self.torsion.imag) if self.torsion is not None else ""
        cells = [f(self.point.s.real), f(self.point.s.imag),
                 f(self.point.t.real), f(self.point.t.imag),
                 self.point.branch,
                 f(self.u.real), f(self.u.imag),
                 f(self.trace_l.real), f(self.trace_l.imag),
                 f(self.lam.real), f(self.lam.imag),
                 tau_re, tau_im,
                 f(self.point.residual), f(self.relation_residual),
                 ";".join(self.flags)]
        return ",".join(cells)


def aligned_longitude_eigenvalue(p: RileyPoint, l21_tol: float = L21_TOL) -> complex:
    """l11 of the closed-form longitude matrix: on the variety l21
    vanishes, so l11 is the eigenvalue of rho(l) on rho(x)'s
    s-eigenvector.  Raises OffVariety when l21 is not small."""
    ml = longitude_matrix_closed(p)
    scale = max(1.0, float(np.max(np.abs(ml))))
    if abs(ml[1, 0]) > l21_tol * scale:
        raise OffVariety(f"|l21| = {abs(ml[1, 0]):.3e}")
    return complex(ml[0, 0])


def _matrix_power(m: np.ndarray, n: int) -> np.ndarray:
    if n < 0:
        return np.linalg.matrix_power(mat2_inverse(m), -n)
    return np.linalg.matrix_power(m, n)


def surgery_residual(pt: RileyPoint, slope: SurgerySlope) -> tuple[complex, float]:
    """(scalar, matrix) residuals of the surgery relation x^p l^q = 1:
    the scalar form s^p lam^q - 1 and the Frobenius norm
    ||rho(x)^p rho(l)^q - E||.  The matrix norm is authoritative."""
    lam = longitude_l11(pt.s, pt.t)
    scalar = pt.s ** slope.p * lam ** slope.q - 1
    mx, _ = rep_matrices(pt)
    ml = longitude_matrix_word(pt)
    mat = _matrix_power(mx, slope.p) @ _matrix_power(ml, slope.q) - E2
    return complex(scalar), float(np.linalg.norm(mat))


def _surgery_polynomial(slope: SurgerySlope) -> np.ndarray:
    """Integer coefficients of z^n f(z), n = max(4|q|, |p|), highest power
    first.  Zeros are trimmed at both ends: at |p| = 4|q| the extreme
    terms cancel, and a trailing zero is a root z = 0, no solution."""
    p, q = abs(slope.p), abs(slope.q)
    n = max(4 * q, p)
    coeffs = np.zeros(2 * n + 1)
    for power, c in ((p, 1), (-p, 1), (4 * q, -1), (2 * q, 1), (0, 2),
                     (-2 * q, 1), (-4 * q, -1)):
        coeffs[n - power] += c
    return np.trim_zeros(coeffs)


def _candidates(slope: SurgerySlope) -> list[RileyPoint]:
    """One variety point per root z of f: s = z^q with the t-branch whose
    aligned longitude eigenvalue l11 is nearest lambda = z^-p."""
    coeffs = _surgery_polynomial(slope)
    df = np.polyder(coeffs)
    d2f = np.polyder(df)
    points = []
    for z in np.roots(coeffs):
        z = complex(z)
        s = z ** slope.q
        if abs(s * s + 1) <= DOUBLE_ROOT_TOL:
            for _ in range(3):
                z -= np.polyval(df, z) / np.polyval(d2f, z)
            s = z ** slope.q
        lam = z ** -slope.p
        plus, minus = solve_t(s)
        pt = min(plus, minus, key=lambda b: abs(longitude_l11(s, b.t) - lam))
        if abs(plus.t - minus.t) <= BRANCH_POINT_TOL:
            s2, s4 = s * s, s ** 4
            t = (s4 * lam - s4 * s2 + s4 + 2 * s2 - 1) / (s2 * (s4 - 1))
            pt = make_point(s, t, pt.branch)
        points.append(pt)
    return points


def solve_surgery(slope: SurgerySlope,
                  tol: float = 1e-10) -> list[SurgerySolution]:
    """Every character satisfying the surgery relation: the roots of f
    (see the module docstring) that lie on the variety within tol and
    have matrix residual <= max(tol, 1e-9); deduplicated by character
    (u, tr rho(l)) within 10*tol, sorted by |u| then arg(u)."""
    # (p, q) and (-p, -q) impose the same relation; normalizing the sign
    # gives both slopes the same candidates, not just the same characters
    root_slope = slope
    if slope.p < 0 or (slope.p == 0 and slope.q < 0):
        root_slope = SurgerySlope(-slope.p, -slope.q)
    solutions: list[SurgerySolution] = []
    for pt in _candidates(root_slope):
        s = pt.s
        if not pt.on_variety(tol):
            continue
        _, mat_res = surgery_residual(pt, slope)
        flags = []
        if abs(s * s - 1) <= PARABOLIC_TOL:
            flags.append("parabolic")
        if mat_res > max(tol, 1e-9):
            continue
        u = trace_u(s)
        if abs(u * u - 5) <= DEGENERATE_U2_TOL:
            flags.append("degenerate")
        try:
            tau = torsion_surgered(u)
        except DegenerateU:
            tau = None
            if "degenerate" not in flags:
                flags.append("degenerate")
        try:
            lam = aligned_longitude_eigenvalue(pt)
        except OffVariety:
            continue
        solutions.append(SurgerySolution(
            point=pt, u=u, trace_l=complex(longitude_trace(pt)), lam=lam,
            relation_residual=mat_res, torsion=tau, flags=flags))

    # character dedup (also merges z <-> 1/z, i.e. s <-> 1/s)
    dedup_tol = 10 * tol
    unique: list[SurgerySolution] = []
    for sol in solutions:
        dup = False
        for kept in unique:
            if (abs(sol.u - kept.u) <= dedup_tol * max(1.0, abs(kept.u))
                    and abs(sol.trace_l - kept.trace_l)
                    <= dedup_tol * max(1.0, abs(kept.trace_l))):
                dup = True
                break
        if not dup:
            unique.append(sol)
    unique.sort(key=lambda sol: (abs(sol.u),
                                 math.atan2(sol.u.imag, sol.u.real),
                                 sol.point.branch))
    return unique


def table_to_csv(solutions: list[SurgerySolution]) -> str:
    lines = [CSV_HEADER] + [sol.to_csv_row() for sol in solutions]
    return "\n".join(lines) + "\n"


def table_to_json(solutions: list[SurgerySolution]) -> str:
    return json.dumps([sol.to_json() for sol in solutions], indent=2)

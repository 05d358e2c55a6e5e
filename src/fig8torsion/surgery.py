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

The candidates of a slope are filtered all at once, on (N, 2, 2)
stacks: the variety check, the matrix residual, the l21 check, the
closed-form l11 and tr rho(l), and the character dedup.
`surgery_residual` is the N = 1 call of the same residual, so a check
that re-tests a row gets the bits the solver filtered on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateU, InvalidSlope, OffVariety
from .linalg import E2
from .riley import (LONGITUDE, RileyPoint, longitude_entries, longitude_l11,
                    make_point, rep_stacks, solve_t, trace_l, trace_u)
from .words import X, word_inverse, word_product
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


def _aligned_l11(s: np.ndarray, t: np.ndarray,
                 l21_tol: float = L21_TOL) -> tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
    """(l11, |l21|, aligned) of the closed-form longitude at each point
    of the stacks s, t; aligned is |l21| <= l21_tol * max(1, max |l_ij|)."""
    entries = longitude_entries(s, t)
    l21 = np.abs(entries[2])
    scale = np.maximum(1.0, np.max(np.abs(entries), axis=0))
    return entries[0], l21, l21 <= l21_tol * scale


def aligned_longitude_eigenvalue(p: RileyPoint, l21_tol: float = L21_TOL) -> complex:
    """l11 of the closed-form longitude matrix: on the variety l21
    vanishes, so l11 is the eigenvalue of rho(l) on rho(x)'s
    s-eigenvector.  Raises OffVariety when l21 is not small."""
    l11, l21, aligned = _aligned_l11(np.array([p.s]), np.array([p.t]),
                                     l21_tol)
    if not aligned[0]:
        raise OffVariety(f"|l21| = {l21[0]:.3e}")
    return complex(l11[0])


def _relation_residuals(s: np.ndarray, t: np.ndarray,
                        slope: SurgerySlope) -> np.ndarray:
    """||rho(x)^p rho(l)^q - E|| at each point of the stacks s, t, with
    rho(l) multiplied out from its word.  A negative power takes the
    exact inverse images of `rep_stacks`: x^-1, and rho(l)^-1 from the
    inverse longitude word."""
    imgs = rep_stacks(s, t)
    mx = imgs[X] if slope.p >= 0 else imgs[-X]
    ml = word_product(LONGITUDE if slope.q >= 0 else word_inverse(LONGITUDE),
                      imgs)
    power = np.linalg.matrix_power
    rel = power(mx, abs(slope.p)) @ power(ml, abs(slope.q)) - E2
    return np.linalg.norm(rel, axis=(1, 2))


def surgery_residual(pt: RileyPoint, slope: SurgerySlope) -> tuple[complex, float]:
    """(scalar, matrix) residuals of the surgery relation x^p l^q = 1:
    the scalar form s^p lam^q - 1 and the Frobenius norm
    ||rho(x)^p rho(l)^q - E||.  The matrix norm is authoritative; it is
    the N = 1 case of the residual `solve_surgery` filters on, bit for
    bit."""
    lam = longitude_l11(pt.s, pt.t)
    scalar = pt.s ** slope.p * lam ** slope.q - 1
    mat = _relation_residuals(np.array([pt.s]), np.array([pt.t]), slope)
    return complex(scalar), float(mat[0])


def polynomial_degree(slope: SurgerySlope) -> int:
    """Degree 2n of z^n f(z), n = max(4|q|, |p|), before trimming: the
    size of the companion matrix whose eigenvalues give the candidates."""
    return 2 * max(4 * abs(slope.q), abs(slope.p))


def _surgery_polynomial(slope: SurgerySlope) -> np.ndarray:
    """Integer coefficients of z^n f(z), n = max(4|q|, |p|), highest power
    first.  Zeros are trimmed at both ends: at |p| = 4|q| the extreme
    terms cancel, and a trailing zero is a root z = 0, no solution."""
    p, q = abs(slope.p), abs(slope.q)
    n = polynomial_degree(slope) // 2
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


def _first_distinct(u: np.ndarray, trl: np.ndarray,
                    tol: float) -> np.ndarray:
    """Indices of the rows kept by a first-kept character dedup: row i is
    dropped when a kept row j < i has |u_i - u_j| <= tol * max(1, |u_j|)
    and the same for trl."""
    def near(v):    # near(v)[i, j]: v_i is within tol of v_j
        return np.abs(v[:, None] - v) <= tol * np.maximum(1.0, np.abs(v))
    earlier = np.tril(near(u) & near(trl), -1)
    keep = np.ones(len(u), dtype=bool)
    # a row with no earlier match is kept whatever the rows before it do
    for i in np.flatnonzero(earlier.any(axis=1)):
        keep[i] = not (earlier[i] & keep).any()
    return np.flatnonzero(keep)


def solve_surgery(slope: SurgerySlope,
                  tol: float = 1e-10) -> list[SurgerySolution]:
    """Every character satisfying the surgery relation: the roots of f
    (see the module docstring) that lie on the variety within tol, have
    matrix residual <= max(tol, 1e-9) and a vanishing l21; deduplicated
    by character (u, tr rho(l)) within 10*tol, sorted by |u| then arg(u).
    All candidates are filtered at once, on (N, 2, 2) stacks."""
    # (p, q) and (-p, -q) impose the same relation; normalizing the sign
    # gives both slopes the same candidates, not just the same characters
    root_slope = slope
    if slope.p < 0 or (slope.p == 0 and slope.q < 0):
        root_slope = SurgerySlope(-slope.p, -slope.q)
    points = _candidates(root_slope)
    s = np.array([pt.s for pt in points])
    t = np.array([pt.t for pt in points])
    residual = np.array([pt.residual for pt in points])
    # a candidate far off the variety may overflow; its non-finite
    # residuals fail the comparisons below, which reject it
    with np.errstate(all="ignore"):
        # RileyPoint.on_variety(tol) on the stack
        on_variety = residual <= tol * np.maximum(
            1.0, np.maximum(np.abs(s) ** 2, np.abs(t) ** 2))
        mat_res = _relation_residuals(s, t, slope)
        lam, _, aligned = _aligned_l11(s, t)
        u, trl = trace_u(s), trace_l(s, t)
        parabolic = np.abs(s * s - 1) <= PARABOLIC_TOL
        degenerate = np.abs(u * u - 5) <= DEGENERATE_U2_TOL
    rows = np.flatnonzero(on_variety & (mat_res <= max(tol, 1e-9)) & aligned)
    # character dedup (also merges z <-> 1/z, i.e. s <-> 1/s)
    rows = rows[_first_distinct(u[rows], trl[rows], 10 * tol)]

    solutions = []
    for k in rows:
        u_k = complex(u[k])
        flags = []
        if parabolic[k]:
            flags.append("parabolic")
        if degenerate[k]:
            flags.append("degenerate")
        try:
            tau = torsion_surgered(u_k)
        except DegenerateU:
            tau = None
            if "degenerate" not in flags:
                flags.append("degenerate")
        solutions.append(SurgerySolution(
            point=points[k], u=u_k, trace_l=complex(trl[k]),
            lam=complex(lam[k]), relation_residual=float(mat_res[k]),
            torsion=tau, flags=flags))
    solutions.sort(key=lambda sol: (abs(sol.u),
                                    math.atan2(sol.u.imag, sol.u.real),
                                    sol.point.branch))
    return solutions


def table_to_csv(solutions: list[SurgerySolution]) -> str:
    lines = [CSV_HEADER] + [sol.to_csv_row() for sol in solutions]
    return "\n".join(lines) + "\n"


def table_to_json(solutions: list[SurgerySolution]) -> str:
    return json.dumps([sol.to_json() for sol in solutions], indent=2)

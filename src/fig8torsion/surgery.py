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

f is self-reciprocal, so with v = (z + 1/z)/2 and z^k + z^-k = 2 T_k(v)

    f = 2 [T_|p|(v) - T_4|q|(v) + T_2|q|(v) + 1],

a Chebyshev series of degree n = max(4|q|, |p|) (Good, 1961; Trefethen,
Approximation Theory and Approximation Practice, ch. 18).  Its roots v
are the eigenvalues of the n x n colleague matrix, half the size of the
companion matrix of z^n f, and each gives the pair z, 1/z with
z = v + sqrt(v^2 - 1).  One Newton step on f in z, with f and f' from
its seven terms, polishes every z where that step is finite.  When 4 | p, z = +-i are double roots
of f (s = +-i, u = 0, lambda = 1), i.e. v^2 divides the series: it is
divided out exactly before the roots are taken, and s = +-i, lambda = 1
join the candidates as exact values.

The candidate stage runs on stacks: all roots of a slope at once get
s, lambda, the t-branch whose l11 is nearest lambda (with the
branch-point rule applied through a mask) and the variety residual.
The candidates are then filtered all at once, on (N, 2, 2) stacks: the
variety check, the matrix residual (the one test that rejects a
candidate on the variety), the closed-form l11 and tr rho(l), and the
character dedup; a RileyPoint is built only for each row kept.
`relation_residuals` is that residual on any stack of points, and
`surgery_residual` its N = 1 call, so a check that re-tests rows gets
the bits the solver filtered on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateU, InvalidSlope
from .linalg import E2
from .riley import (LONGITUDE, RileyPoint, _t_branches, _t_from_l11,
                    complex_csv, complex_json, longitude_l11, rep_stacks,
                    riley_poly, trace_l, trace_u, variety_membership)
from .words import X, word_inverse, word_product
from .formulas import torsion_surgered

RELATION_TOL = 1e-9      # ||rho(x)^p rho(l)^q - E|| at most this: a row
DEDUP_RTOL = 1e-9        # u and tr rho(l) both this close: one character
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
        return {"point": self.point.to_json(), "u": complex_json(self.u),
                "trace_l": complex_json(self.trace_l),
                "lambda": complex_json(self.lam),
                "relation_residual": self.relation_residual,
                "torsion": complex_json(self.torsion),
                "flags": list(self.flags)}

    def to_csv_row(self) -> str:
        pt = self.point
        cells = [complex_csv(pt.s), complex_csv(pt.t), pt.branch,
                 complex_csv(self.u), complex_csv(self.trace_l),
                 complex_csv(self.lam), complex_csv(self.torsion),
                 f"{pt.residual:.17g}", f"{self.relation_residual:.17g}",
                 ";".join(self.flags)]
        return ",".join(cells)


def relation_residuals(s: np.ndarray, t: np.ndarray,
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
    mat = relation_residuals(np.array([pt.s]), np.array([pt.t]), slope)
    return complex(scalar), float(mat[0])


def polynomial_degree(slope: SurgerySlope) -> int:
    """n = max(4|q|, |p|), the degree of f's Chebyshev series in
    v = (z + 1/z)/2 before trimming: the size of the colleague matrix
    whose eigenvalues give the candidates."""
    return max(4 * abs(slope.q), abs(slope.p))


def _terms(slope: SurgerySlope) -> tuple[tuple[int, int], ...]:
    """f(z) as its seven (power, coefficient) terms, in |p| and |q|:
    f is the same for p/q and -p/q."""
    p, q = abs(slope.p), abs(slope.q)
    return ((p, 1), (-p, 1), (4 * q, -1), (2 * q, 1), (0, 2), (-2 * q, 1),
            (-4 * q, -1))


def _chebyshev_series(slope: SurgerySlope) -> np.ndarray:
    """Coefficients c_k, lowest first, of f(z) = 2 sum_k c_k T_k(v),
    v = (z + 1/z)/2: f is self-reciprocal, so each term c z^k is
    c (z^k + z^-k)/2 = c T_|k|(v) in f.  At |p| = 4|q| the extreme terms
    cancel, and numpy's Chebyshev routines trim the trailing zero."""
    coeffs = np.zeros(polynomial_degree(slope) + 1)
    for power, c in _terms(slope):
        coeffs[abs(power)] += c / 2
    return coeffs


def _newton_step(z: np.ndarray, slope: SurgerySlope) -> np.ndarray:
    """One Newton step on f at each z, z - z f(z) / (z f'(z)), with f and
    z f' from one table of the powers in `_terms`; a z whose step is not
    finite (f' = 0 at the parabolic double root z = -1) is left as it
    is."""
    power, c = np.array(_terms(slope)).T
    zk = z[:, None] ** power
    with np.errstate(all="ignore"):
        step = z * (zk @ c) / (zk @ (power * c))
    return np.where(np.isfinite(step), z - step, z)


def _candidates(slope: SurgerySlope) -> tuple[np.ndarray, ...]:
    """The candidates of all roots z of f at once, as stacks
    (s, lam, t, branch, residual): s = z^q, lam = z^-p, the t-branch
    whose aligned longitude eigenvalue l11 is nearest lam, its label
    "+" or "-", and |R12(s, t)|.  The roots come in pairs z, 1/z, one
    pair for each root v of f's Chebyshev series, each polished by one
    Newton step on f.  When 4 | p the double root v = 0 (z = +-i) is
    divided out and its candidates s = +-i, lam = 1 appended."""
    coeffs = _chebyshev_series(slope)
    if slope.p % 4 == 0:
        # exact: v^2 = (T_0 + T_2)/2, and the quotient is nonzero at v = 0
        coeffs = np.polynomial.chebyshev.chebdiv(coeffs, (0.5, 0, 0.5))[0]
    v = np.polynomial.chebyshev.chebroots(coeffs).astype(complex)
    z = v + np.sqrt(v * v - 1)
    z = _newton_step(np.concatenate([z, 1 / z]), slope)
    s, lam = z ** slope.q, z ** -slope.p
    if slope.p % 4 == 0:
        # z = +-i give s = +-i and lam = 1; appended as values, since
        # numpy takes z ** n by exp/log for |n| >= 100, off by ~1e-15
        s, lam = np.append(s, (1j, -1j)), np.append(lam, (1, 1))
    t_plus, t_minus = _t_branches(s)
    l11_plus, l11_minus = longitude_l11(s, np.stack([t_plus, t_minus]))
    minus = np.abs(l11_minus - lam) < np.abs(l11_plus - lam)
    t = np.where(minus, t_minus, t_plus)
    meet = np.abs(t_plus - t_minus) <= BRANCH_POINT_TOL
    if meet.any():
        t[meet] = _t_from_l11(s[meet], lam[meet])
    return (s, lam, t, np.where(minus, "-", "+"),
            np.abs(riley_poly(s, t)))


def _first_distinct(u: np.ndarray, trl: np.ndarray) -> np.ndarray:
    """Indices of the rows kept by a first-kept character dedup: row i is
    dropped when a kept row j < i has
    |u_i - u_j| <= DEDUP_RTOL * max(1, |u_j|) and the same for trl."""
    def near(v):    # near(v)[i, j]: v_i is within DEDUP_RTOL of v_j
        return (np.abs(v[:, None] - v)
                <= DEDUP_RTOL * np.maximum(1.0, np.abs(v)))
    earlier = np.tril(near(u) & near(trl), -1)
    keep = np.ones(len(u), dtype=bool)
    # a row with no earlier match is kept whatever the rows before it do
    for i in np.flatnonzero(earlier.any(axis=1)):
        keep[i] = not (earlier[i] & keep).any()
    return np.flatnonzero(keep)


def solve_surgery(slope: SurgerySlope) -> list[SurgerySolution]:
    """Every character satisfying the surgery relation: the roots of f
    (see the module docstring) on the variety within VARIETY_TOL, with
    matrix residual <= RELATION_TOL; deduplicated by character
    (u, tr rho(l)) within DEDUP_RTOL and sorted by `_row_key`.  On the
    variety l21 vanishes identically, and no s = +-1 candidate meets the
    relation: there rho(x)^p rho(l)^q keeps the unipotent part p + q c,
    c = +-2 sqrt(-3) the cusp shape.  A row is degenerate, with torsion
    None, exactly when `torsion_surgered` raises DegenerateU.  All
    candidates are made and filtered at once, on stacks."""
    # (p, q) and (-p, -q) impose the same relation; normalizing the sign
    # gives both slopes the same candidates, not just the same characters
    root_slope = slope
    if slope.p < 0 or (slope.p == 0 and slope.q < 0):
        root_slope = SurgerySlope(-slope.p, -slope.q)
    # a candidate far off the variety may overflow; its non-finite
    # residuals fail the comparisons below, which reject it
    with np.errstate(all="ignore"):
        s, _, t, branch, residual = _candidates(root_slope)
        on_variety = variety_membership(s, t, residual)
        mat_res = relation_residuals(s, t, slope)
        lam = longitude_l11(s, t)
        u, trl = trace_u(s), trace_l(s, t)
    rows = np.flatnonzero(on_variety & (mat_res <= RELATION_TOL))
    # character dedup (also merges z <-> 1/z, i.e. s <-> 1/s)
    rows = rows[_first_distinct(u[rows], trl[rows])]

    solutions = []
    for k in rows:
        u_k = complex(u[k])
        flags = []
        try:
            tau = torsion_surgered(u_k)
        except DegenerateU:
            tau = None
            flags.append("degenerate")
        point = RileyPoint(complex(s[k]), complex(t[k]), str(branch[k]),
                           float(residual[k]))
        solutions.append(SurgerySolution(
            point=point, u=u_k, trace_l=complex(trl[k]),
            lam=complex(lam[k]), relation_residual=float(mat_res[k]),
            torsion=tau, flags=flags))
    solutions.sort(key=_row_key)
    return solutions


_PI_10 = round(math.pi, 10)


def _row_key(sol: SurgerySolution) -> tuple[float, float, str]:
    """Sort key (|u|, arg u, branch) with |u| to 10 significant digits
    and arg u to 1e-10, in (-pi, pi]: far above the ~1e-14 rounding
    noise in u and far below the dedup distance, so rows whose |u| tie
    in exact arithmetic (u and -conj(u)) keep their order when u moves
    in the last bits."""
    u = sol.u
    arg = round(math.atan2(u.imag, u.real), 10)
    if arg == -_PI_10:      # -pi and pi are one direction
        arg = _PI_10
    return float(f"{abs(u):.9e}"), arg, sol.point.branch


def table_to_csv(solutions: list[SurgerySolution]) -> str:
    lines = [CSV_HEADER] + [sol.to_csv_row() for sol in solutions]
    return "\n".join(lines) + "\n"


def table_to_json(solutions: list[SurgerySolution]) -> str:
    return json.dumps([sol.to_json() for sol in solutions])

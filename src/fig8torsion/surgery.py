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
before being reported, and each pair z, 1/z gives at most one row.

f is self-reciprocal, so with v = (z + 1/z)/2 and z^k + z^-k = 2 T_k(v)

    f = 2 [T_|p|(v) - T_4|q|(v) + T_2|q|(v) + 1],

a Chebyshev series of degree n = max(4|q|, |p|) (Good, 1961; Trefethen,
Approximation Theory and Approximation Practice, ch. 18).  Its roots v
are the eigenvalues of the n x n colleague matrix, half the size of the
companion matrix of z^n f, and each gives the pair z, 1/z with
z = v + sqrt(v^2 - 1).  One Newton step on f in z, with f and f' from
its seven terms, polishes every z where that step is finite.  When
4 | p, z = +-i are double roots of f (s = +-i, u = 0, lambda = 1), i.e.
v^2 divides the series: it is divided out exactly before the roots are
taken, and s = +-i, lambda = 1 join the candidates as one exact pair.

`solve_surgery` takes one slope or a sequence of slopes, and solves
either in one pass on the same code; it refuses a slope whose degree n
exceeds MAX_SURGERY_DEGREE before taking any root.  Per slope it takes
the roots, s and lambda from them, and the matrix powers of the
residual.  Once, on the joined stacks of every slope's candidates, it
checks s, takes s^2, 1/s^2 and the l11 coefficients once, and from
them, through the `riley` kernels, the t-branch whose l11 is nearest
lambda (with the branch-point rule applied through a mask), R12, the
printed l11, u and tr rho(l); then the variety test and the matrix
residual, the one test that rejects a candidate on the variety.  Per
slope again, it picks one row per pair, sorts the rows on the column
lists, and builds each row once, in that order.  `relation_residuals`
is that residual on any stack of points held as runs (slope, count),
and `surgery_residual` its N = 1 call, which gives a row's
`relation_residual` bit for bit.  That holds because the longitude
word, the powers and their product are all taken on (2, 2, N) entry
layouts, whatever the stack length: elementwise arithmetic rounds item
k the same way at every N, where numpy's `matmul` is not promised to.

The tables print each row from one template, the CSV row from its cells
and the JSON row (`SurgerySolution.to_json_row`) byte for byte as
`json.dumps` would print the row's nested object, without building it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateU, InvalidSlope
from .linalg import mat2_entries, mat2_power, mat2_product
from .riley import (LONGITUDE, RileyPoint, _check_s, _l11_coefficients,
                    _longitude_l11, _powers, _riley_poly, _t_branches,
                    _t_from_l11, _trace_l, _trace_u, complex_csv,
                    longitude_l11, rep_stacks, variety_membership)
from .words import X, _word_entries
from .formulas import torsion_surgered

RELATION_TOL = 1e-9      # ||rho(x)^p rho(l)^q - E|| at most this: a row
# u = +-1 (lambda = -1) and u^2 = 5 (lambda = 1, t = 0): s is a branch
# point of solve_t, whose square root is then good only to ~1e-8; where the
# two t-branches meet, take t from l11 reduced modulo R12 instead
BRANCH_POINT_TOL = 1e-6   # |t+ - t-| below this
# time and memory grow with the degree max(4|q|, |p|) of the surgery
# relation's Chebyshev series: a fresh `surgery --p 1 --q 100` process
# (degree 400) takes ~0.16 s and ~36 MB peak RSS, and one at 1/200 with
# the limit raised to 800 ~0.39 s and ~43 MB (2-core Xeon, numpy 2.4.6)
MAX_SURGERY_DEGREE = 400

CSV_HEADER = ("s_re,s_im,t_re,t_im,branch,u_re,u_im,trl_re,trl_im,"
              "lambda_re,lambda_im,tau_re,tau_im,res_variety,res_relation,"
              "flags")
# one JSON row (see `SurgerySolution.to_json_row`); the torsion cell is
# null or {"re": ..., "im": ...}
_JSON_ROW = ('{"point": {"s": {"re": %s, "im": %s}, '
             '"t": {"re": %s, "im": %s}, "branch": "%s", "residual": %s}, '
             '"u": {"re": %s, "im": %s}, "trace_l": {"re": %s, "im": %s}, '
             '"lambda": {"re": %s, "im": %s}, "relation_residual": %s, '
             '"torsion": %s, "flags": [%s]}')


@dataclass(frozen=True)
class SurgerySlope:
    """A slope p/q, gcd(|p|, |q|) = 1.  p/q and -p/-q are one relation,
    so the sign is decided once: stored with q >= 0, and 1/0 at q = 0."""

    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise InvalidSlope("slope (0, 0)")
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise InvalidSlope(f"gcd(|{self.p}|, |{self.q}|) != 1")
        if self.q < 0 or (self.q == 0 and self.p < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)


@dataclass
class SurgerySolution:
    slope: SurgerySlope      # the row's slope; not in the JSON or CSV row
    point: RileyPoint
    u: complex
    trace_l: complex
    lam: complex             # aligned longitude eigenvalue l11
    relation_residual: float
    torsion: complex | None
    flags: list[str] = field(default_factory=list)

    def to_json_row(self) -> str:
        """The row as JSON, byte for byte what `json.dumps` gives for its
        nested dict (keys, key order, the default separators), from one
        template: each float through `float.__repr__`, the function
        json's encoder calls, `null` for a missing torsion, and branch
        and flags quoted as the fixed ASCII identifiers they are.  A row
        holds no NaN or inf, which json would print as bare NaN or
        Infinity: the variety and relation gates reject every non-finite
        candidate, and the torsion is finite or None."""
        pt, tau, r = self.point, self.torsion, float.__repr__
        s, t, u, trl, lam = pt.s, pt.t, self.u, self.trace_l, self.lam
        return _JSON_ROW % (
            r(s.real), r(s.imag), r(t.real), r(t.imag), pt.branch,
            r(pt.residual), r(u.real), r(u.imag), r(trl.real), r(trl.imag),
            r(lam.real), r(lam.imag), r(self.relation_residual),
            "null" if tau is None else
            '{"re": %s, "im": %s}' % (r(tau.real), r(tau.imag)),
            ", ".join(['"%s"' % flag for flag in self.flags]))

    def to_csv_row(self) -> str:
        pt = self.point
        cells = [complex_csv(pt.s), complex_csv(pt.t), pt.branch,
                 complex_csv(self.u), complex_csv(self.trace_l),
                 complex_csv(self.lam), complex_csv(self.torsion),
                 f"{pt.residual:.17g}", f"{self.relation_residual:.17g}",
                 ";".join(self.flags)]
        return ",".join(cells)


def relation_residuals(s: np.ndarray, t: np.ndarray,
                       runs: Iterable[tuple[SurgerySlope, int]]
                       ) -> np.ndarray:
    """||rho(x)^p rho(l)^q - E|| at each point of the stacks s, t, held
    as runs (slope, count) that cover them in order, with rho(l)
    multiplied out from its word once.  A slope has q >= 0 (see
    `SurgerySlope`), so only rho(x) is ever inverted, as the exact image
    x^-1 of `rep_stacks` when p < 0.  The matrix powers are taken by
    squaring (`linalg.mat2_power`) once per run; everything else runs
    once on the stacks.  The word, the powers and their product are
    taken on (2, 2, N) entry layouts at every stack length, so item k
    has the same bits whatever the stack holds besides it; at p = 0 or
    q = 0 that power is E, and the residual is that of the other factor
    alone."""
    entries = {a: mat2_entries(m) for a, m in rep_stacks(s, t).items()}
    ml = _word_entries(LONGITUDE, entries)
    rel = np.empty_like(ml)
    stop = 0
    for slope, count in runs:
        items = slice(stop, stop + count)
        stop += count
        mx = entries[X if slope.p >= 0 else -X][:, :, items]
        rel[:, :, items] = mat2_product(mat2_power(mx, abs(slope.p)),
                                        mat2_power(ml[:, :, items], slope.q))
    if stop != ml.shape[2]:
        raise ValueError(f"runs cover {stop} of {ml.shape[2]} points")
    rel[0, 0] -= 1
    rel[1, 1] -= 1
    return np.linalg.norm(rel, axis=(0, 1))


def surgery_residual(pt: RileyPoint, slope: SurgerySlope) -> tuple[complex, float]:
    """(scalar, matrix) residuals of the surgery relation x^p l^q = 1:
    the scalar form s^p lam^q - 1 and the Frobenius norm
    ||rho(x)^p rho(l)^q - E||.  The matrix norm is authoritative; it is
    the N = 1 case of the residual `solve_surgery` filters on, bit for
    bit."""
    lam = longitude_l11(pt.s, pt.t)
    scalar = pt.s ** slope.p * lam ** slope.q - 1
    mat = relation_residuals(np.array([pt.s]), np.array([pt.t]), [(slope, 1)])
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


def _roots(slope: SurgerySlope) -> tuple[np.ndarray, np.ndarray]:
    """(s, lam) = (z^+-q, z^-|p|), q's sign that of p (0 counts as +), at
    every root z of f, as two halves: z = v + sqrt(v^2 - 1) for each root
    v of f's Chebyshev series, then 1/z in the same order, each polished
    by one Newton step on f: candidates k and k + m of a 2m-item stack
    are one character.  When 4 | p the double root v = 0 (z = +-i) is
    divided out and its candidates s = +-i, lam = 1 end the two halves."""
    coeffs = _chebyshev_series(slope)
    if slope.p % 4 == 0:
        # exact: v^2 = (T_0 + T_2)/2, and the quotient is nonzero at v = 0
        coeffs = np.polynomial.chebyshev.chebdiv(coeffs, (0.5, 0, 0.5))[0]
    v = np.polynomial.chebyshev.chebroots(coeffs).astype(complex)
    z = v + np.sqrt(v * v - 1)
    z = _newton_step(np.concatenate([z, 1 / z]), slope)
    s = z ** (slope.q if slope.p >= 0 else -slope.q)
    lam = z ** -abs(slope.p)
    if slope.p % 4 == 0:
        # z = +-i give s = +-i and lam = 1, written as values, since
        # numpy takes z ** n by exp/log for |n| >= 100, off by ~1e-15
        m = len(v)
        s = np.concatenate([s[:m], [1j], s[m:], [-1j]])
        lam = np.concatenate([lam[:m], [1], lam[m:], [1]])
    return s, lam


def _candidate_columns(slopes: Sequence[SurgerySlope]) -> tuple:
    """The candidates of a nonempty sequence of slopes, one slope after
    the other: the stacks (s, lam, t, branch, residual), the list of each
    slope's candidate count and the stacks (l11, u, trl).  After each
    slope's `_roots`, one pass on the joined stacks checks s, takes its
    powers once (see the module docstring), and picks the t-branch whose
    l11 is nearest lam, labelled "+" or "-"."""
    parts = [_roots(slope) for slope in slopes]
    s, lam = (np.concatenate(stack) for stack in zip(*parts))
    s = _check_s(s)
    s2, inv2 = _powers(s)
    a, b = _l11_coefficients(s2, inv2)
    t_plus, t_minus = _t_branches(s2)
    l11_plus, l11_minus = (_longitude_l11(a, b, t_plus),
                           _longitude_l11(a, b, t_minus))
    minus = np.abs(l11_minus - lam) < np.abs(l11_plus - lam)
    t = np.where(minus, t_minus, t_plus)
    meet = np.abs(t_plus - t_minus) <= BRANCH_POINT_TOL
    if meet.any():
        t[meet] = _t_from_l11(a[meet], b[meet], lam[meet])
    return (s, lam, t, np.where(minus, "-", "+"),
            np.abs(_riley_poly(s2, inv2, t)), [len(part[0]) for part in parts],
            _longitude_l11(a, b, t), _trace_u(s), _trace_l(s2, s ** 4, t))


def solve_surgery(slopes: SurgerySlope | Sequence[SurgerySlope]
                  ) -> list[SurgerySolution]:
    """Every character satisfying the surgery relation: the roots of f
    (see the module docstring) on the variety within VARIETY_TOL, with
    matrix residual <= RELATION_TOL, one per pair z, 1/z, and sorted by
    `_row_key`.  A pair's row is z where z passes, else 1/z: the two
    are one character, but their residuals differ in rounding, so
    either may pass alone.  On the variety l21 vanishes identically, and
    no s = +-1 candidate meets the relation: there rho(x)^p rho(l)^q
    keeps the unipotent part p + q c, c = +-2 sqrt(-3) the cusp shape.  A
    row is degenerate, with torsion None, exactly when `torsion_surgered`
    raises DegenerateU.

    A sequence of slopes gives one flat list: the rows of each slope in
    input order, each slope's rows chosen and sorted on their own.  One
    pass on the stacks of all slopes' candidates gives every column;
    only the roots, the matrix powers, the pair choice and the sort, on
    the column lists, run per slope, and each row is built once.  A
    slope whose `polynomial_degree` exceeds MAX_SURGERY_DEGREE raises
    InvalidSlope before the roots of any slope are taken."""
    slopes = [slopes] if isinstance(slopes, SurgerySlope) else list(slopes)
    for slope in slopes:
        degree = polynomial_degree(slope)
        if degree > MAX_SURGERY_DEGREE:
            raise InvalidSlope(f"slope {slope.p}/{slope.q} needs a "
                               f"degree-{degree} Chebyshev series; the "
                               f"limit is {MAX_SURGERY_DEGREE}")
    if not slopes:
        return []
    # a candidate far off the variety may overflow; its non-finite
    # residuals fail the comparisons below, which reject it
    with np.errstate(all="ignore"):
        s, _, t, branch, residual, sizes, lam, u, trl = \
            _candidate_columns(slopes)
        on_variety = variety_membership(s, t, residual)
        mat_res = relation_residuals(s, t, zip(slopes, sizes))
    passed = on_variety & (mat_res <= RELATION_TOL)

    solutions = []
    stop = 0
    for slope, size in zip(slopes, sizes):
        start, half, stop = stop, stop + size // 2, stop + size
        # one row per pair: z where it passes, else its partner 1/z
        z_ok = passed[start:half]
        rows = np.flatnonzero(
            np.concatenate([z_ok, passed[half:stop] & ~z_ok])) + start
        cells = zip(*(column[rows].tolist() for column in
                      (s, t, branch, residual, u, trl, lam, mat_res)))
        solutions += [_solution(slope, *cell) for cell in sorted(
            cells, key=lambda cell: _row_key(cell[4], cell[2]))]
    return solutions


def _solution(slope: SurgerySlope, s: complex, t: complex, branch: str,
              residual: float, u: complex, trl: complex, lam: complex,
              relation_residual: float) -> SurgerySolution:
    """One row of the table of `solve_surgery`, with its torsion."""
    flags = []
    try:
        tau = torsion_surgered(u)
    except DegenerateU:
        tau = None
        flags.append("degenerate")
    return SurgerySolution(
        slope=slope, point=RileyPoint(s, t, branch, residual), u=u,
        trace_l=trl, lam=lam, relation_residual=relation_residual,
        torsion=tau, flags=flags)


_PI_10 = round(math.pi, 10)


def _row_key(u: complex, branch: str) -> tuple[float, float, str]:
    """Sort key (|u|, arg u, branch) of the row with this u and branch,
    taken before the row is built, with |u| to 10 significant digits
    and arg u to 1e-10, in (-pi, pi]: far above the ~1e-14 rounding
    noise in u, so rows whose |u| tie in exact arithmetic (u and
    -conj(u)) keep their order when u moves in the last bits, and far
    below the gap between |u| that do not tie, at least 5.8e-6 relative
    on the slopes |p| <= 40, 1 <= q <= 16."""
    arg = round(math.atan2(u.imag, u.real), 10)
    if arg == -_PI_10:      # -pi and pi are one direction
        arg = _PI_10
    return float(f"{abs(u):.9e}"), arg, branch


def table_to_csv(solutions: list[SurgerySolution]) -> str:
    lines = [CSV_HEADER] + [sol.to_csv_row() for sol in solutions]
    return "\n".join(lines) + "\n"


def table_to_json(solutions: list[SurgerySolution]) -> str:
    """The rows as one JSON array, as `json.dumps` of their list would
    print it (see `SurgerySolution.to_json_row`)."""
    return "[" + ", ".join([sol.to_json_row() for sol in solutions]) + "]"

"""Parametrized irreducible SL(2,C) representations of the figure-eight
knot group and the peripheral system.

The knot group is <x, y | wx = yw> with w = x y^-1 x^-1 y; the meridian
is x and the longitude is l = w^-1 wtilde with wtilde = x^-1 y x y^-1.
Every irreducible representation is conjugate to

    x |-> [[s, 1], [0, 1/s]],    y |-> [[s, 0], [-t, 1/s]],

and the pair (s, t) is a homomorphism exactly when the defining
polynomial vanishes.  This module provides that polynomial, its two
t-branches for a given s, and the longitude image both in closed form
and as a word-evaluation oracle.  The closed forms also take arrays of
points, and `rep_stacks` gives the generator images as (N, 2, 2)
stacks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import SingularParameter
from .linalg import mat2, solve_quadratic
from .words import (X, Y, evaluate_word, parse_word, word_concat,
                    word_inverse)

VARIETY_TOL = 1e-10      # membership: |R12| <= tol * max(1, |s|^2, |t|^2)
S_ZERO_TOL = 1e-13

W_WORD = parse_word("xYXy")
WTILDE_WORD = parse_word("XyxY")
# relator r = w x w^-1 y^-1, from the relation wx = yw
RELATOR = word_concat(word_concat(W_WORD, parse_word("x")),
                      word_concat(word_inverse(W_WORD), parse_word("Y")))
LONGITUDE = word_concat(word_inverse(W_WORD), WTILDE_WORD)   # YxyXXyxY


@dataclass(frozen=True)
class RileyPoint:
    """A parameter point (s, t), its branch label, and the defining
    polynomial residual |R12(s, t)|.

    Points with large residual (e.g. the reducible t = 0 points) are
    representable; operations that need variety membership check
    `on_variety` and refuse them.
    """

    s: complex
    t: complex
    branch: str = "?"        # "+", "-", or "?" for ad-hoc points
    residual: float = 0.0

    def on_variety(self, tol: float = VARIETY_TOL) -> bool:
        scale = max(1.0, abs(self.s) ** 2, abs(self.t) ** 2)
        return self.residual <= tol * scale

    def to_json(self) -> dict:
        return {"s": {"re": self.s.real, "im": self.s.imag},
                "t": {"re": self.t.real, "im": self.t.imag},
                "branch": self.branch,
                "residual": self.residual}


def _check_s(s):
    """s as a complex number, or as a complex array if it is an ndarray;
    raises SingularParameter unless every s is finite and above
    S_ZERO_TOL in modulus."""
    if isinstance(s, np.ndarray):
        s = s.astype(complex, copy=False)
        finite = np.isfinite(s)
        if np.count_nonzero(finite) != s.size:
            raise SingularParameter(f"s = {s[~finite][0]} is not finite")
        if np.count_nonzero(np.abs(s) > S_ZERO_TOL) != s.size:
            raise SingularParameter("s = 0")
        return s
    s = complex(s)
    if not cmath.isfinite(s):
        raise SingularParameter(f"s = {s} is not finite")
    if abs(s) <= S_ZERO_TOL:
        raise SingularParameter("s = 0")
    return s


def make_point(s: complex, t: complex, branch: str = "?") -> RileyPoint:
    s = _check_s(s)
    return RileyPoint(s, complex(t), branch, abs(riley_poly(s, t)))


def rep_matrices(p: RileyPoint) -> tuple[np.ndarray, np.ndarray]:
    """The images of the generators x and y (both unimodular)."""
    s = _check_s(p.s)
    return (mat2(s, 1, 0, 1 / s), mat2(s, 0, -p.t, 1 / s))


def rep_stacks(s: np.ndarray, t: np.ndarray) -> dict[int, np.ndarray]:
    """The images of x, y, x^-1 and y^-1, keyed by letter, as (N, 2, 2)
    stacks over the N points (s[k], t[k]).  Both generators are
    unimodular, so the inverses are exact:
    x^-1 -> [[1/s, -1], [0, s]] and y^-1 -> [[1/s, 0], [t, s]]."""
    s = _check_s(np.asarray(s))
    t = np.asarray(t, dtype=complex)
    one, zero, inv = np.ones_like(s), np.zeros_like(s), 1 / s

    def stack(a11, a12, a21, a22):
        return np.stack([a11, a12, a21, a22], axis=-1).reshape(-1, 2, 2)

    return {X: stack(s, one, zero, inv), -X: stack(inv, -one, zero, s),
            Y: stack(s, zero, -t, inv), -Y: stack(inv, zero, t, s)}


def riley_poly(s: complex, t: complex) -> complex:
    """Defining polynomial R12 of the irreducible character variety:
    R12 = 3 - 1/s^2 - s^2 + 3t - t/s^2 - s^2 t + t^2."""
    s = _check_s(s)
    s2 = s * s
    return 3 - 1 / s2 - s2 + 3 * t - t / s2 - s2 * t + t * t


def _t_branches(s):
    """(t+, t-), the roots of R12(s, t) = 0 in t:
    t = (1 - 3 s^2 + s^4 +- sqrt(1 - 2 s^2 - s^4 - 2 s^6 + s^8)) / (2 s^2).

    The "+" branch uses the principal square root (via solve_quadratic's
    deterministic pairing of s^2 t^2 + A t + A = 0, A = 3 s^2 - 1 - s^4).
    s is a complex number or a complex array, not checked here; an array
    gives arrays t+ and t-."""
    s2 = s * s
    a_coef = 3 * s2 - 1 - s2 * s2
    return solve_quadratic(s2, a_coef, a_coef)


def solve_t(s: complex) -> tuple[RileyPoint, RileyPoint]:
    """The two t-branches over a given s (see `_t_branches`), as points."""
    s = _check_s(s)
    t_plus, t_minus = _t_branches(s)
    return (RileyPoint(s, t_plus, "+", abs(riley_poly(s, t_plus))),
            RileyPoint(s, t_minus, "-", abs(riley_poly(s, t_minus))))


def trace_u(s):
    """Meridian trace u = s + 1/s; s may be an array."""
    s = _check_s(s)
    return s + 1 / s


def longitude_matrix_word(p: RileyPoint) -> np.ndarray:
    """Longitude image by multiplying out the word l = w^-1 wtilde."""
    mx, my = rep_matrices(p)
    return evaluate_word(LONGITUDE, mx, my)


def longitude_matrix_closed(p: RileyPoint) -> np.ndarray:
    """Longitude image from the closed-form entries l_ij(s, t)."""
    return mat2(*longitude_entries(p.s, p.t))


def longitude_entries(s, t) -> tuple:
    """Closed-form entries (l11, l12, l21, l22) of the longitude image;
    s and t may be arrays of one shape."""
    s = _check_s(s)
    s2, s3, s4 = s * s, s ** 3, s ** 4
    t2, t3, t4 = t * t, t ** 3, t ** 4
    l11 = longitude_l11(s, t)
    l12 = t / s3 + s3 * t - t2 / s - s * t2
    l21 = (t2 / s3 - 2 * t2 / s - 2 * s * t2 + s3 * t2
           + t3 / s3 - 2 * t3 / s - 2 * s * t3 + s3 * t3
           - t4 / s - s * t4)
    l22 = (1 + t / s2 - s2 * t - t2 + t2 / s2 - s2 * t2 + s4 * t2
           - t3 - s2 * t3)
    return l11, l12, l21, l22


def longitude_l11(s, t):
    """Closed-form entry l11 alone (the longitude eigenvalue aligned
    with the eigenvalue s of the meridian image, on the variety); s and
    t may be arrays of one shape."""
    s = _check_s(s)
    s2, s4 = s * s, s ** 4
    t2, t3 = t * t, t ** 3
    return (1 - t / s2 + s2 * t - t2 + t2 / s4 - t2 / s2 + s2 * t2
            - t3 - t3 / s2)


def longitude_trace(p: RileyPoint) -> complex:
    """Closed-form longitude trace at p (see `trace_l`)."""
    return trace_l(p.s, p.t)


def trace_l(s, t):
    """Closed-form longitude trace
    tr = 2 - 2 t^2 + t^2/s^4 + s^4 t^2 - 2 t^3 - t^3/s^2 - s^2 t^3;
    s and t may be arrays of one shape."""
    s = _check_s(s)
    s2, s4 = s * s, s ** 4
    t2, t3 = t * t, t ** 3
    return (2 - 2 * t2 + t2 / s4 + s4 * t2 - 2 * t3 - t3 / s2 - s2 * t3)

"""Parametrized irreducible SL(2,C) representations of the figure-eight
knot group and the peripheral system.

The knot group is <x, y | wx = yw> with w = x y^-1 x^-1 y; the meridian
is x and the longitude is l = w^-1 wtilde with wtilde = x^-1 y x y^-1.
Every irreducible representation is conjugate to

    x |-> [[s, 1], [0, 1/s]],    y |-> [[s, 0], [-t, 1/s]],

and the pair (s, t) is a homomorphism exactly when the defining
polynomial vanishes.  This module provides that polynomial, its two
t-branches for a given s, the longitude entry l11 and trace in closed
form, and the whole longitude image as a word product, the oracle for
both.  These take a point as two numbers (s, t), or a stack of points
as two arrays of one shape, and `rep_stacks`, the one builder of the
generator images, gives them as (N, 2, 2) stacks.
Each public form checks s (`_check_s`) and calls a private kernel on
checked powers (`_powers`, `_l11_coefficients`), so the surgery solver
checks s once, shares the powers, and gets the public forms' bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularParameter
from .linalg import LEADING_TOL, solve_quadratic
from .words import X, Y, parse_word, word_concat, word_inverse, word_product

VARIETY_TOL = 1e-10      # membership: |R12| <= tol * max(1, |s|^2, |t|^2)
# |s| <= S_ZERO_TOL is taken as s = 0: solve_t's quadratic in t has
# leading coefficient s^2, which solve_quadratic refuses at LEADING_TOL
S_ZERO_TOL = math.sqrt(LEADING_TOL)

W_WORD = parse_word("xYXy")
WTILDE_WORD = parse_word("XyxY")
# relator r = w x w^-1 y^-1, from the relation wx = yw
RELATOR = word_concat(word_concat(W_WORD, parse_word("x")),
                      word_concat(word_inverse(W_WORD), parse_word("Y")))
LONGITUDE = word_concat(word_inverse(W_WORD), WTILDE_WORD)   # YxyXXyxY


@dataclass(frozen=True)
class RileyPoint:
    """A parameter point (s, t), its branch label, and the defining
    polynomial residual |R12(s, t)|: the record that `solve_t` returns
    and a surgery row holds.  The functions of a point take (s, t).

    Points with large residual (e.g. the reducible t = 0 points) are
    representable.  The stored residual is a record: operations that
    need variety membership test their own |R12(s, t)| with
    `variety_membership`, on one point or a stack, and refuse such
    points (the Fox oracle) or drop them (the surgery solver).
    """

    s: complex
    t: complex
    branch: str = "?"        # "+", "-", or "?" for ad-hoc points
    residual: float = 0.0

    def to_json(self) -> dict:
        return {"s": complex_json(self.s), "t": complex_json(self.t),
                "branch": self.branch, "residual": self.residual}


def variety_membership(s, t, residual):
    """The one variety test, |R12| = residual <= VARIETY_TOL *
    max(1, |s|^2, |t|^2); s, t and residual may be arrays of one shape,
    tested item by item."""
    return residual <= VARIETY_TOL * np.maximum(
        1.0, np.maximum(np.abs(s) ** 2, np.abs(t) ** 2))


def complex_json(z):
    """The JSON cell {"re": ..., "im": ...} of a complex number, or None."""
    return None if z is None else {"re": z.real, "im": z.imag}


def complex_csv(z) -> str:
    """The two CSV cells "re,im" of a complex number to 17 significant
    digits, which parse back to the same floats; two empty cells for
    None."""
    return "," if z is None else f"{z.real:.17g},{z.imag:.17g}"


def _check_s(s):
    """s as a complex number, or as a complex array if it is an ndarray;
    raises SingularParameter unless every s is finite and above
    S_ZERO_TOL in modulus, naming the first s that is not."""
    if isinstance(s, np.ndarray):
        s = s.astype(complex, copy=False)
        bad = ~np.isfinite(s) | (np.abs(s) <= S_ZERO_TOL)
        if np.count_nonzero(bad):
            _check_s(complex(s[bad][0]))   # raises, naming that s
        return s
    s = complex(s)
    if not cmath.isfinite(s):
        raise SingularParameter(f"s = {s} is not finite")
    if abs(s) <= S_ZERO_TOL:
        raise SingularParameter(
            f"s is too close to 0: |s| = {abs(s):.3e} <= {S_ZERO_TOL:.1e}")
    return s


def _powers(s):
    """(s^2, 1/s^2) of a checked s, or of an array of them."""
    s2 = s * s
    return s2, 1 / s2


def rep_stacks(s: np.ndarray, t: np.ndarray) -> dict[int, np.ndarray]:
    """The images of x, y, x^-1 and y^-1, keyed by letter, as (N, 2, 2)
    stacks over the N points (s[k], t[k]), or over one point for scalar
    s and t: the one builder of the generator images.  Both generators
    are unimodular, so the inverses are exact:
    x^-1 -> [[1/s, -1], [0, s]] and y^-1 -> [[1/s, 0], [t, s]].  Each
    stack is a view of a (2, 2, N) entry layout, as `linalg.mat2_stack`
    gives."""
    s = _check_s(np.asarray(s)).reshape(-1)
    t = np.asarray(t, dtype=complex).reshape(-1)
    inv = 1 / s
    # the (2, 2, N) entry layouts of x, x^-1, y, y^-1
    entries = np.zeros((4, 2, 2, s.size), dtype=complex)
    entries[0::2, 0, 0] = entries[1::2, 1, 1] = s
    entries[1::2, 0, 0] = entries[0::2, 1, 1] = inv
    entries[0, 0, 1], entries[1, 0, 1] = 1, -1
    entries[2, 1, 0], entries[3, 1, 0] = -t, t
    imgs = entries.transpose(0, 3, 1, 2)
    return {X: imgs[0], -X: imgs[1], Y: imgs[2], -Y: imgs[3]}


def riley_poly(s: complex, t: complex) -> complex:
    """Defining polynomial R12 of the irreducible character variety:
    R12 = 3 - 1/s^2 - s^2 + 3t - t/s^2 - s^2 t + t^2."""
    return _riley_poly(*_powers(_check_s(s)), t)


def _riley_poly(s2, inv2, t):
    """`riley_poly` from (s^2, 1/s^2) = `_powers(s)`."""
    return 3 - inv2 - s2 + 3 * t - t / s2 - s2 * t + t * t


def _t_branches(s2):
    """(t+, t-), the roots of R12(s, t) = 0 in t, from s2 = s^2:
    t = (1 - 3 s^2 + s^4 +- sqrt(1 - 2 s^2 - s^4 - 2 s^6 + s^8)) / (2 s^2).

    The "+" branch uses the principal square root (via solve_quadratic's
    deterministic pairing of s^2 t^2 + A t + A = 0, A = 3 s^2 - 1 - s^4).
    s2 is a complex number or a complex array, not checked here; an
    array gives arrays t+ and t-."""
    a_coef = 3 * s2 - 1 - s2 * s2
    return solve_quadratic(s2, a_coef, a_coef)


def _l11_coefficients(s2, inv2):
    """(a, b) with l11 = a t + b modulo R12, from (s^2, 1/s^2) =
    `_powers(s)`: a = s^2 - s^-2 and b = s^2 - 1 - 2 s^-2 + s^-4."""
    return s2 - inv2, s2 - 1 - 2 * inv2 + inv2 * inv2


def _longitude_l11(a, b, t):
    """`longitude_l11` from its coefficients (see `_l11_coefficients`)."""
    return a * t + b


def _t_from_l11(a, b, lam):
    """The t at which l11 = lam on the variety, (lam - b)/a (see
    `_l11_coefficients`); a, b and lam may be arrays of one shape."""
    return (lam - b) / a


def solve_t(s: complex) -> tuple[RileyPoint, RileyPoint]:
    """The two t-branches over a given s (see `_t_branches`), as points."""
    s = _check_s(s)
    s2, inv2 = _powers(s)
    t_plus, t_minus = _t_branches(s2)
    return (RileyPoint(s, t_plus, "+", abs(_riley_poly(s2, inv2, t_plus))),
            RileyPoint(s, t_minus, "-", abs(_riley_poly(s2, inv2, t_minus))))


def trace_u(s):
    """Meridian trace u = s + 1/s; s may be an array."""
    return _trace_u(_check_s(s))


def _trace_u(s):
    """`trace_u` at a checked s."""
    return s + 1 / s


def longitude_matrix_word(s, t) -> np.ndarray:
    """Longitude image by multiplying out the word l = w^-1 wtilde
    (`word_product` on `rep_stacks`): a 2x2 matrix at the point (s, t),
    or one per item of arrays s and t of one shape, each with the bits
    of its one-point call."""
    return word_product(LONGITUDE, rep_stacks(s, t)).reshape(
        np.shape(s) + (2, 2))


def longitude_l11(s, t):
    """Entry l11 of the longitude image on the variety, a t + b (see
    `_l11_coefficients`): the longitude eigenvalue aligned with the
    eigenvalue s of the meridian image.  s and t may be arrays of one
    shape."""
    return _longitude_l11(*_l11_coefficients(*_powers(_check_s(s))), t)


def trace_l(s, t):
    """Closed-form longitude trace
    tr = 2 - 2 t^2 + t^2/s^4 + s^4 t^2 - 2 t^3 - t^3/s^2 - s^2 t^3;
    s and t may be arrays of one shape.  It stays a function of t:
    modulo R12 it is s^4 - s^2 - 2 - s^-2 + s^-4, the u-form that the
    trace checks compare it with."""
    s = _check_s(s)
    return _trace_l(s * s, s ** 4, t)


def _trace_l(s2, s4, t):
    """`trace_l` from s2 = s * s and s4 = s ** 4."""
    t2, t3 = t * t, t ** 3
    return (2 - 2 * t2 + t2 / s4 + s4 * t2 - 2 * t3 - t3 / s2 - s2 * t3)


def trace_l_scale(s, t):
    """The sum of the moduli of the seven terms of `trace_l`, 2 included:
    the scale of its rounding error."""
    s2, t2 = abs(s) ** 2, abs(t) ** 2
    return (2 + t2 * (2 + s2 * s2 + 1 / (s2 * s2))
            + t2 * abs(t) * (2 + s2 + 1 / s2))

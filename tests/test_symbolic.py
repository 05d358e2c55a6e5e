"""Exact certificates, in sympy, for the closed forms that the numeric
tests check only at sample points, against the longitude word product:
the trace equals the word's, l11 and the A-polynomial trace agree with
it modulo R12 (hence the trace identity), the word's l21 vanishes
modulo R12, the branch-point rule inverts l11, and the surgery
polynomial equals its definition.  Also the repeated factors of the
surgery polynomial, and det Phi(dr/dy) = -2(u - 1) det(Phi(x) - E)
modulo R12 from the symbolic Fox derivative of the relator."""

import math

import pytest

sympy = pytest.importorskip("sympy")

from fig8torsion import riley                              # noqa: E402
from fig8torsion.riley import (LONGITUDE, RELATOR,         # noqa: E402
                               longitude_l11, riley_poly, trace_l)
from fig8torsion.surgery import SurgerySlope, _surgery_polynomial  # noqa: E402
from fig8torsion.words import X, Y                         # noqa: E402
from fox_reference import fox_derivative                   # noqa: E402

s, t, z = sympy.symbols("s t z")
# tr rho(l) modulo R12: the figure-eight A-polynomial lambda + 1/lambda
A_TRACE = s**4 - s**2 - 2 - s**-2 + s**-4


@pytest.fixture
def symbolic(monkeypatch):
    # _check_s calls complex(), which a sympy symbol refuses
    monkeypatch.setattr(riley, "_check_s", lambda v: v)


def _images():
    imgs = {X: sympy.Matrix([[s, 1], [0, 1 / s]]),
            Y: sympy.Matrix([[s, 0], [-t, 1 / s]])}
    imgs[-X], imgs[-Y] = imgs[X].inv(), imgs[Y].inv()
    return imgs


def _word_matrix(word, imgs):
    m = sympy.eye(2)
    for letter in word:
        m = m * imgs[letter]
    return m


def _longitude_word_matrix():
    return _word_matrix(LONGITUDE, _images())


def _is_zero_mod_r12(expr, r12) -> bool:
    # R12 is monic in t, so division in t leaves a remainder of degree
    # < 2 with coefficients rational in s
    return sympy.cancel(sympy.rem(sympy.together(expr), r12, t)) == 0


def test_longitude_closed_forms_exact(symbolic):
    word = _longitude_word_matrix()
    assert sympy.expand(trace_l(s, t) - word.trace()) == 0
    r12 = sympy.expand(riley_poly(s, t))
    assert _is_zero_mod_r12(longitude_l11(s, t) - word[0, 0], r12)


def test_longitude_modulo_r12(symbolic):
    r12 = sympy.expand(riley_poly(s, t))
    assert sympy.expand(r12 - (3 - s**-2 - s**2 + 3 * t - t / s**2
                               - s**2 * t + t**2)) == 0
    assert _is_zero_mod_r12(_longitude_word_matrix()[1, 0], r12)
    assert _is_zero_mod_r12(trace_l(s, t) - A_TRACE, r12)
    # hence the trace identity 2 - tr rho(l) = u^2 (5 - u^2), u = s + 1/s
    u = s + 1 / s
    assert sympy.expand(2 - A_TRACE - u**2 * (5 - u**2)) == 0


def test_branch_point_rule_exact(symbolic):
    """The word's l11 is linear in t modulo R12, `longitude_l11` is that
    linear form, and `_t_from_l11`, which `_candidates` uses where the
    two t-branches meet, inverts it."""
    r12 = sympy.expand(riley_poly(s, t))
    l11_reduced = (s**2 - s**-2) * t + s**2 - 1 - 2 * s**-2 + s**-4
    assert _is_zero_mod_r12(_longitude_word_matrix()[0, 0] - l11_reduced, r12)
    assert sympy.expand(longitude_l11(s, t) - l11_reduced) == 0
    assert sympy.cancel(riley._t_from_l11(s, l11_reduced) - t) == 0


@pytest.mark.parametrize("p, q", [(2, 5), (4, 1), (0, 1)])
def test_surgery_polynomial_exact(p, q):
    """z^n (z^p + z^-p - tr rho(l)(s = z^q)), n = max(4|q|, |p|), with
    zeros trimmed at both ends; 4/1 has |p| = 4|q|, where the extreme
    terms cancel."""
    n = max(4 * abs(q), abs(p))
    f = z**p + z**-p - A_TRACE.subs(s, z**q)
    coeffs = sympy.Poly(sympy.expand(z**n * f), z).all_coeffs()
    while coeffs[-1] == 0:
        coeffs.pop()
    assert [int(c) for c in _surgery_polynomial(SurgerySlope(p, q))] == coeffs


def test_relator_derivative_determinant_exact(symbolic):
    """det Phi(dr/dy) = -2(u - 1) det(Phi(x) - E) modulo R12, the
    determinant ratio of `torsion_exterior_oracle` and the closed form
    tau(E) = -2(u - 1), with dr/dy from the symbolic Fox derivative."""
    imgs = _images()
    drdy = sympy.zeros(2)
    for word, coeff in fox_derivative(RELATOR, Y).terms.items():
        drdy += coeff * _word_matrix(word, imgs)
    u = s + 1 / s
    r12 = sympy.expand(riley_poly(s, t))
    assert _is_zero_mod_r12(
        drdy.det() + 2 * (u - 1) * (imgs[X] - sympy.eye(2)).det(), r12)


# every coprime slope with |p| <= 40 and 1 <= q <= 16
GRID = [(p, q) for q in range(1, 17) for p in range(-40, 41)
        if math.gcd(abs(p), q) == 1]


def _surgery_poly(p, q):
    """z^n f(z), n = max(4|q|, |p|), from the definition of f."""
    n = max(4 * abs(q), abs(p))
    return sympy.Poly(sympy.expand(z**n * (z**p + z**-p
                                            - A_TRACE.subs(s, z**q))), z)


def test_quarter_turn_factor_exact():
    """When 4 | p, (z^2 + 1)^2 divides z^n f exactly, and the quotient
    `_candidates` takes the roots of has none at z = +-i (its
    coefficients are real, so i suffices): the candidates s = +-i that
    it appends are the only ones at u = 0."""
    square = sympy.Poly((z**2 + 1)**2, z)
    slopes = [(p, q) for p, q in GRID if p % 4 == 0]
    assert len(slopes) == 133
    for p, q in slopes:
        quotient, remainder = sympy.div(_surgery_poly(p, q), square)
        assert remainder.is_zero, (p, q)
        assert quotient.eval(sympy.I) != 0, (p, q)


def test_parabolic_factor_exact():
    """When p is odd, (z + 1)^2 divides z^n f, i.e. z^n f and its
    derivative vanish at z = -1: the parabolic double root s = +-1,
    lambda = -1, which the matrix residual rejects."""
    slopes = [(p, q) for p, q in GRID if p % 2]
    assert len(slopes) == 528
    for p, q in slopes:
        poly = _surgery_poly(p, q)
        assert poly.eval(-1) == 0 and poly.diff(z).eval(-1) == 0, (p, q)

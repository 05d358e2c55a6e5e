"""Exact certificates, in sympy, for the closed forms that the numeric
tests check only at sample points, against the longitude word product:
the trace equals the word's, l11 and the A-polynomial trace agree with
it modulo R12 (hence the trace identity), the word's l21 vanishes
modulo R12, the branch-point rule inverts l11, and the Chebyshev
series of the surgery relation equals its definition.  Also the
factors that series is divided by or that give no row, and
det Phi(dr/dy) = -2(u - 1) det(Phi(x) - E) modulo R12 from the symbolic
Fox derivative of the relator."""

import math
from functools import cache

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from fig8torsion import riley                              # noqa: E402
from fig8torsion.riley import (LONGITUDE, RELATOR,         # noqa: E402
                               longitude_l11, riley_poly, trace_l)
from fig8torsion.surgery import SurgerySlope, _chebyshev_series  # noqa: E402
from fig8torsion.words import X, Y                         # noqa: E402
from fox_reference import fox_derivative                   # noqa: E402

s, t, v, z = sympy.symbols("s t v z")
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


@cache
def _chebyshev_t(k):
    return sympy.Poly(sympy.chebyshevt(k, v), v)


def _series_poly(p, q):
    """sum_k c_k T_k(v) as a polynomial in v, from `_chebyshev_series`."""
    return sum((sympy.Rational(c) * _chebyshev_t(k)
                for k, c in enumerate(_chebyshev_series(SurgerySlope(p, q)))),
               sympy.Poly(0, v))


@pytest.mark.parametrize("p, q", [(2, 5), (4, 1), (0, 1), (1, 0)])
def test_surgery_polynomial_exact(p, q):
    """f(z) = z^p + z^-p - tr rho(l)(s = z^q) equals 2 sum_k c_k T_k(v) at
    v = (z + 1/z)/2; 4/1 has |p| = 4|q|, where the extreme terms cancel,
    and p = 0 and q = 0 put several terms on T_0."""
    f = z**p + z**-p - A_TRACE.subs(s, z**q)
    series = _series_poly(p, q).as_expr().subs(v, (z + 1 / z) / 2)
    assert sympy.expand(2 * series - f) == 0


def test_relator_derivative_determinant_exact(symbolic):
    """det Phi(dr/dy) = -2(u - 1) det(Phi(x) - E) modulo R12, with dr/dy
    from the symbolic Fox derivative: the determinant ratio of the Fox
    complex (Kitano, Osaka J. Math. 31, 1994) is the closed form
    tau(E) = -2(u - 1) exactly, so the numeric oracle needs no second
    route through it."""
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


def test_quarter_turn_factor_exact():
    """When 4 | p, v^2 = (T_0 + T_2)/2, the double root z = +-i, divides
    the series exactly, and the quotient `_candidates` takes the roots of
    is nonzero at v = 0: the candidates s = +-i that it appends are the
    only ones at u = 0.  numpy's `chebdiv` gives that quotient exactly
    too: times v^2 it is the series again, bit for bit."""
    square = sympy.Poly(v**2, v)
    slopes = [(p, q) for p, q in GRID if p % 4 == 0]
    assert len(slopes) == 133
    for p, q in slopes:
        quotient, remainder = sympy.div(_series_poly(p, q), square)
        assert remainder.is_zero, (p, q)
        assert quotient.eval(0) != 0, (p, q)
        coeffs = _chebyshev_series(SurgerySlope(p, q))
        cheb = np.polynomial.chebyshev
        numeric, rest = cheb.chebdiv(coeffs, (0.5, 0, 0.5))
        assert not rest.any(), (p, q)
        back = cheb.chebmul(numeric, (0.5, 0, 0.5))
        assert not cheb.chebsub(back, coeffs).any(), (p, q)


def test_parabolic_factor_exact():
    """When p is odd, v = -1 is a root of the series: (z + 1)^2 divides
    z^n f, the parabolic double root s = +-1, lambda = -1, which the
    matrix residual rejects.  As T_k(-1) = (-1)^k, the certificate is an
    integer sum."""
    slopes = [(p, q) for p, q in GRID if p % 2]
    assert len(slopes) == 528
    for p, q in slopes:
        coeffs = _chebyshev_series(SurgerySlope(p, q))
        assert sum(sympy.Rational(c) * (-1) ** k
                   for k, c in enumerate(coeffs)) == 0, (p, q)

"""Exact certificates, in sympy, for the closed forms that the numeric
tests check only at sample points, against the longitude word product:
the trace equals the word's, `trace_l_scale` is the sum of its terms'
moduli, l11 and the A-polynomial trace agree with it modulo R12 (hence
the trace identity), the word's l21 vanishes modulo R12, the
branch-point rule inverts l11, and the Chebyshev series of the surgery
relation equals its definition.  Also the
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
from fig8torsion.surgery import (RELATION_TOL, SurgerySlope,  # noqa: E402
                                 _chebyshev_series, solve_surgery)
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


def test_trace_l_scale_is_the_sum_of_the_term_moduli():
    """`trace_l_scale`, the rounding scale that `full_report` gives the
    trace identity, is the sum of the moduli of the seven terms of the
    expanded word trace, 2 included."""
    terms = sympy.Add.make_args(sympy.expand(_longitude_word_matrix().trace()))
    assert len(terms) == 7 and 2 in terms
    rng = np.random.default_rng(3)
    sv, tv = np.exp(rng.normal(size=(2, 50))
                    + 2j * np.pi * rng.random((2, 50)))
    want = sum(np.abs(sympy.lambdify((s, t), term, "numpy")(sv, tv))
               for term in terms)
    got = riley.trace_l_scale(sv, tv)
    assert np.max(np.abs(got - want) / want) <= 1e-12


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
    a, b = riley._l11_coefficients(*riley._powers(s))
    assert sympy.cancel(riley._t_from_l11(a, b, l11_reduced) - t) == 0


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


def _power_sums(poly):
    """[p_0, ..., p_{n-1}], p_k the sum of the k-th powers of the n roots
    of poly, with multiplicity, by Newton's identities on its
    coefficients: p_k = -k a_k - sum_{0<i<k} a_i p_{k-i} for the monic
    v^n + a_1 v^(n-1) + ... + a_n."""
    lead, *rest = poly.all_coeffs()
    a = [c / lead for c in rest]
    sums = [sympy.Integer(len(a))]
    for k in range(1, len(a)):
        sums.append(-k * a[k - 1]
                    - sum(a[i - 1] * sums[k - i] for i in range(1, k)))
    return sums


# the exact sum of 1/tau over the rows of +-1/q
TAU_SUMS = {1: sympy.Rational(5, 2), 2: 42, 3: 27, 5: 85, 8: 744, 12: 1692,
            16: 3024}


@pytest.mark.parametrize("q", sorted(TAU_SUMS))
@pytest.mark.parametrize("p", [1, -1])
def test_tau_column_sums_exact_on_the_1_over_n_slopes(p, q):
    """On p = +-1 the printed paper form 2(u - 1)/(u^2 (u^2 - 5)) is the
    true tau(M), and the table is complete: one row per root v of f's
    Chebyshev series P once the parabolic factor v + 1 is divided out.
    So sum 1/tau over the rows is sum g(v) over the roots of P, with
    g = A/B, A = u^2 (u^2 - 5), B = 2(u - 1) and u = 2 T_q(v): a
    symmetric function of the roots, taken here in exact arithmetic the
    table does not use.  The extended gcd of B and P is 1, which proves
    that no row has u = 1 and gives B^-1 modulo P; at every root, g is
    then the polynomial R = A B^-1 mod P, and sum R(v_j) comes from the
    roots' power sums (Newton's identities).

    The bound comes from the rows' gate: a row is kept when
    ||rho(x)^p rho(l)^q - E|| <= RELATION_TOL, and on the variety that
    matrix is triangular with s^p lambda^q - 1 on its diagonal, so each
    row's relation holds to RELATION_TOL.  Read as a relative error of
    each term, that puts the float sum within RELATION_TOL sum |1/tau|
    of the exact one."""
    deflated, rest = sympy.div(_series_poly(p, q), sympy.Poly(v + 1, v))
    assert rest.is_zero
    u = 2 * _chebyshev_t(q)
    inv_b, _, gcd = sympy.gcdex(2 * (u - 1), deflated)
    assert gcd == sympy.Poly(1, v, domain=gcd.domain)
    r = (u**2 * (u**2 - 5) * inv_b).rem(deflated)
    exact = sum(c * p_k for c, p_k in
                zip(reversed(r.all_coeffs()), _power_sums(deflated)))
    assert exact == TAU_SUMS[q]
    rows = solve_surgery(SurgerySlope(p, q))
    assert len(rows) == deflated.degree() == 4 * q - 1
    numeric = sum(1 / sol.torsion for sol in rows)
    bound = RELATION_TOL * sum(abs(1 / sol.torsion) for sol in rows)
    assert abs(numeric - float(exact)) <= bound

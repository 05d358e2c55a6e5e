"""An independent 60-digit re-check of the surgery rows' relation
residual ||rho(x)^p rho(l)^q - E||.

Each row's float s and t are taken as exact, the images of x, y and
their inverses are rebuilt at 60 digits with mpmath, and rho(l) and the
two powers are multiplied out on tuples of mpmath numbers: no code of
the package takes part but the word LONGITUDE.  The float residual must
sit within a rounding bound of the float product, stated from Higham,
Accuracy and Stability of Numerical Algorithms (2nd ed., 2002), ch. 3:

* a complex product or quotient is exact times (1 + d) with
  |d| <= sqrt(2) gamma_4 (Lemma 3.5), and a complex 2 x 2 product has
  |fl(A' B') - A' B'| <= c |A'| |B'| entrywise, c = sqrt(2) gamma_4
  (the complex inner product of section 3.6, n = 2);
* the only rounded entry of an image is 1/s, which the test checks
  against that quotient bound, so each image A' has |A' - A| <= c |A|;
* if |A' - A| <= E_A and |B' - B| <= E_B, then
  |fl(A' B') - A B| <= E_A |B| + |A| E_B + E_A E_B
  + c (|A| + E_A)(|B| + E_B),
  the running bound of section 3.3 without dropping second-order
  terms.  It is carried through every product, at 60 digits, in the
  order the float code takes them: the longitude word folded from the
  left, each power by squaring with the squares multiplied on from
  the right (`linalg.mat2_power`), then rho(x)^p rho(l)^q;
* subtracting E rounds the two real diagonal parts once, and the
  Frobenius norm, a sum of four squares and a square root, adds a
  relative error below gamma_6, so together they add at most gamma_8
  times the float residual.

So |residual - exact residual| <= ||E_P||_F + gamma_8 residual.

The a priori form of the same analysis, gamma_{6(2k - 1)} times the
product of the k factors' entrywise moduli, is not used: the moduli of
the eight letters of rho(l) lose the cancellation inside the word, and
on the 1/16 rows that form reaches ~1e30.
"""

import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from fig8torsion import verify                              # noqa: E402
from fig8torsion.riley import LONGITUDE                     # noqa: E402
from fig8torsion.surgery import SurgerySlope, solve_surgery  # noqa: E402
from fig8torsion.words import X, Y                          # noqa: E402

UNIT_ROUNDOFF = 2.0 ** -53
ZERO = ((0, 0), (0, 0))


def gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u)."""
    return m * UNIT_ROUNDOFF / (1 - m * UNIT_ROUNDOFF)


# the rounding of one complex quotient, or of one entry of a 2 x 2 product
C = math.sqrt(2) * gamma(4)


def _product(a, b):
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j]
                       for j in range(2)) for i in range(2))


def _combine(f, *mats):
    return tuple(tuple(f(*cells) for cells in zip(*rows))
                 for rows in zip(*mats))


def _moduli(a):
    return _combine(abs, a)


def _tracked_product(a, b):
    """The product of two (value, error bound) pairs: the exact product
    of the values and the bound on the float product's error."""
    (va, ea), (vb, eb) = a, b
    ma, mb = _moduli(va), _moduli(vb)
    first = _combine(lambda *x: sum(x), _product(ea, mb), _product(ma, eb),
                     _product(ea, eb))
    rounding = _product(_combine(lambda m, e: m + e, ma, ea),
                        _combine(lambda m, e: m + e, mb, eb))
    return (_product(va, vb),
            _combine(lambda f, r: f + C * r, first, rounding))


def _tracked_power(a, n: int):
    """a^n, n >= 0, by squaring in `linalg.mat2_power`'s order."""
    if n == 0:
        return ((1, 0), (0, 1)), ZERO
    power = None
    while True:
        if n & 1:
            power = a if power is None else _tracked_product(power, a)
        n >>= 1
        if not n:
            return power
        a = _tracked_product(a, a)


def exact_residual(s: complex, t: complex, slope: SurgerySlope):
    """(||rho(x)^p rho(l)^q - E||_F, ||E_P||_F) at 60 digits, E_P the
    bound on the error of the float product."""
    s, t = mpmath.mpc(s), mpmath.mpc(t)
    images = {X: ((s, 1), (0, 1 / s)), -X: ((1 / s, -1), (0, s)),
              Y: ((s, 0), (-t, 1 / s)), -Y: ((1 / s, 0), (t, s))}
    tracked = {a: (img, _combine(lambda m: C * m, _moduli(img)))
               for a, img in images.items()}
    ml = tracked[LONGITUDE[0]]
    for a in LONGITUDE[1:]:
        ml = _tracked_product(ml, tracked[a])
    mx = tracked[X if slope.p >= 0 else -X]
    prod, err = _tracked_product(_tracked_power(mx, abs(slope.p)),
                                 _tracked_power(ml, slope.q))
    res = mpmath.sqrt(sum(abs(prod[i][j] - (i == j)) ** 2
                          for i in range(2) for j in range(2)))
    return res, mpmath.sqrt(sum(e ** 2 for row in err for e in row))


def _verify_rows(monkeypatch):
    """The rows of the ten slopes of `verify.check_surgery_solver`, as
    its one solve_surgery call returns them."""
    rows = []

    def recording(slopes):
        rows.extend(solve_surgery(slopes))
        return rows

    monkeypatch.setattr(verify, "solve_surgery", recording)
    assert verify.check_surgery_solver().passed
    return rows


def test_relation_residual_at_60_digits(monkeypatch):
    """Every row of verify's ten slopes, -13/3 and 1/16 has the exact
    residual of its float s and t within the rounding bound of the
    float residual."""
    rows = _verify_rows(monkeypatch)
    assert len({row.slope for row in rows}) == 9     # 1/0 has no rows
    rows += solve_surgery([SurgerySlope(-13, 3), SurgerySlope(1, 16)])
    with mpmath.workdps(60):
        for row in rows:
            s = row.point.s
            # numpy's quotient 1/s, as rep_stacks takes it
            inv, exact_inv = (1 / np.array([s]))[0], 1 / mpmath.mpc(s)
            assert abs(inv - exact_inv) <= C * abs(exact_inv), s
            res, err = exact_residual(s, row.point.t, row.slope)
            bound = err + gamma(8) * row.relation_residual
            assert abs(row.relation_residual - res) <= bound, (row.slope, s)

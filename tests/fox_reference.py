"""Symbolic Fox calculus over the group ring Z[F_2], the reference the
tests hold `words.fox_jacobian` and `words.fox_blocks` against: the
derivatives are formed as formal sums of words first, and each term is
then evaluated as a word of its own.  `evaluate_word` evaluates a word
from two generator images, inverting them with `mat2_inverse`, as a
fold of `@`: the reference for `words.word_product` as well."""

from functools import reduce

import numpy as np

from fig8torsion.linalg import E2, mat2_inverse
from fig8torsion.words import X, Y, word_concat, word_to_text


def evaluate_word(w, imgx: np.ndarray, imgy: np.ndarray) -> np.ndarray:
    """Image of w under the representation x -> imgx, y -> imgy, as a
    fold of `@` from E2: not `words.word_product`, which it is a
    reference for."""
    imgs = {X: imgx, Y: imgy, -X: mat2_inverse(imgx), -Y: mat2_inverse(imgy)}
    return reduce(np.matmul, (imgs[a] for a in w), E2)


# stack lengths for the entry-array products: one item, a short stack,
# `STACK_KERNEL_MIN_ITEMS`, and a surgery slope's candidate count
ENTRY_STACK_LENGTHS = (1, 5, 48, 203)
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def spread_stack(rng, n, spread=20.0):
    """n random complex 2x2 matrices with entries of modulus e^x, x
    uniform in [-spread, spread], and uniform phase."""
    return np.exp(rng.uniform(-spread, spread, (n, 2, 2))
                  + 1j * rng.uniform(0, 2 * np.pi, (n, 2, 2)))


def product_bound(factors):
    """Twice Higham's bound on the rounding error of the product of the
    k >= 1 complex 2x2 matrices (or stacks) `factors`, entry by entry
    (Accuracy and Stability of Numerical Algorithms, ch. 3).  An entry
    of one 2x2 complex product is a complex inner product of length 2,
    off by at most gamma_4 times that of the moduli (gamma_n becomes
    gamma_{n+2} in complex arithmetic, sec. 3.6), so the k - 1 products,
    in any order, are off by at most ((1 + gamma_4)^(k-1) - 1)
    |A_1|...|A_k| <= gamma_{4(k-1)} |A_1|...|A_k| (Lemma 3.3), with
    gamma_n = n u / (1 - n u).  Two such computations differ by twice
    that; gamma_{4k} also covers the rounding of the product of the
    moduli, which has no cancellation."""
    nu = 4 * len(factors) * UNIT_ROUNDOFF
    return 2 * nu / (1 - nu) * reduce(np.matmul, [np.abs(f) for f in factors])


class GroupRingElement:
    """Integer-coefficient formal sum of reduced words.

    Just enough structure for Fox calculus: construction, addition of a
    single term, and evaluation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            for w, c in dict(terms).items():
                self.add_term(w, c)

    def add_term(self, w, coeff: int):
        if coeff == 0:
            return
        w = tuple(w)
        new = self.terms.get(w, 0) + coeff
        if new == 0:
            self.terms.pop(w, None)
        else:
            self.terms[w] = new

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "GroupRingElement(0)"
        parts = [f"{c}*{word_to_text(w) or '1'}"
                 for w, c in sorted(self.terms.items())]
        return "GroupRingElement(" + " + ".join(parts) + ")"


def fox_derivative(w, g: int) -> GroupRingElement:
    """Free derivative d(w)/d(g) for g in {X, Y}.

    Satisfies dg/dg = 1, d(g^-1)/dg = -g^-1, dh/dg = 0 for the other
    generator, and the product rule d(uv)/dg = du/dg + u dv/dg.
    """
    out = GroupRingElement()
    prefix: tuple[int, ...] = ()
    for a in w:
        if a == g:
            out.add_term(prefix, 1)
        elif a == -g:
            out.add_term(word_concat(prefix, (a,)), -1)
        prefix = word_concat(prefix, (a,))
    return out


def evaluate_group_ring(e: GroupRingElement,
                        imgx: np.ndarray, imgy: np.ndarray) -> np.ndarray:
    """Linear extension of the representation to Z[F_2]."""
    out = np.zeros((2, 2), dtype=complex)
    for w, c in e.terms.items():
        out += c * evaluate_word(w, imgx, imgy)
    return out

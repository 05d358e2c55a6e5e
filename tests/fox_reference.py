"""Symbolic Fox calculus over the group ring Z[F_2], the reference the
tests hold `words.fox_jacobian` and `words.fox_blocks` against: the
derivatives are formed as formal sums of words first, and each term is
then evaluated as a word of its own.  `evaluate_word` evaluates a word
from two generator images, inverting them with `mat2_inverse`."""

import numpy as np

from fig8torsion.linalg import mat2_inverse
from fig8torsion.words import (IDENTITY, X, Y, word_concat, word_product,
                               word_to_text)


def evaluate_word(w, imgx: np.ndarray, imgy: np.ndarray) -> np.ndarray:
    """Image of w under the representation x -> imgx, y -> imgy."""
    return word_product(w, {X: imgx, Y: imgy,
                            -X: mat2_inverse(imgx), -Y: mat2_inverse(imgy)})


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
    prefix: tuple[int, ...] = IDENTITY
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

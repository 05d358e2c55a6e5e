"""Words in the free group on {x, y}, free reduction, evaluation under a
2x2 representation, and the Fox free derivatives under it, evaluated in
one prefix pass that gives both at once (`fox_jacobian`, or
`fox_blocks` given the inverse images too).  `word_product`,
`fox_jacobian` and `fox_blocks` take (N, 2, 2) stacks of images as well
as single 2x2 matrices and give the N values at once.  numpy's
`matmul` multiplies a stack of 2x2 complex matrices item by item, so
`word_product` holds the stack as one (2, 2, N) entry layout
(`linalg.mat2_product`) at every N, one matrix included: item k then
has the same bits whatever the stack, which the surgery residual's
one-point re-check relies on.  `fox_blocks` is one prefix loop whose
product kernel is picked before it: entry layouts and `mat2_product`
from `linalg.STACK_KERNEL_MIN_ITEMS` images, `@` on shorter stacks and
single matrices, which is cheaper at one point (see the crossover
table there); no caller compares their bits with a longer stack's.

A word is a tuple of nonzero ints: +1/-1 for x/x^-1, +2/-2 for y/y^-1,
always stored freely reduced.  Its one text form is the compact
alphabet xyXY (uppercase = inverse), the empty string the identity.
"""

from __future__ import annotations

import numpy as np

from .errors import WordParseError
from .linalg import (E2, STACK_KERNEL_MIN_ITEMS, _check_finite, mat2_entries,
                     mat2_inverse, mat2_product, mat2_stack)

X, Y = 1, 2
_CHAR = {X: "x", -X: "X", Y: "y", -Y: "Y"}
_LETTER = {"x": X, "X": -X, "y": Y, "Y": -Y}


def reduce_word(letters) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent g g^-1 pairs)."""
    stack: list[int] = []
    for a in letters:
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return tuple(stack)


def parse_word(text: str) -> tuple[int, ...]:
    """The reduced word of text over the alphabet xyXY, as "xYXy"; the
    empty string is the identity."""
    for pos, char in enumerate(text):
        if char not in _LETTER:
            raise WordParseError(f"bad character at position {pos}: {char!r}")
    return reduce_word(_LETTER[char] for char in text)


def word_to_text(w) -> str:
    """Canonical compact text; identity prints as the empty string."""
    return "".join(_CHAR[a] for a in w)


def word_inverse(w) -> tuple[int, ...]:
    return tuple(-a for a in reversed(w))


def word_concat(a, b) -> tuple[int, ...]:
    return reduce_word(tuple(a) + tuple(b))


def word_product(w, imgs: dict) -> np.ndarray:
    """Product of imgs[a] over the letters a of w, where imgs maps each
    of X, Y, -X, -Y to a 2x2 matrix or to an (N, 2, 2) stack, which
    gives the N images at once; a single matrix is the N = 1 stack.
    The product is taken on entry layouts (`mat2_product`), so item k
    of a stack has the bits of the N = 1 call on it."""
    if not w:
        return np.broadcast_to(E2, imgs[X].shape).copy()
    entries = {a: mat2_entries(imgs[a].reshape(-1, 2, 2)) for a in set(w)}
    out = mat2_stack(_word_entries(w, entries))
    return out[0] if imgs[X].ndim == 2 else out


def _word_entries(w, entries: dict) -> np.ndarray:
    """The product of `word_product` for a nonempty word w, on images
    held as (2, 2, N) entry layouts (`linalg.mat2_entries`), as one."""
    out = entries[w[0]]
    for a in w[1:]:
        out = mat2_product(out, entries[a])
    return out


def fox_jacobian(w, imgx: np.ndarray,
                 imgy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Phi(dw/dx), Phi(dw/dy)) under x -> imgx, y -> imgy (see
    `fox_blocks`)."""
    return fox_blocks(w, {X: imgx, Y: imgy,
                          -X: mat2_inverse(imgx), -Y: mat2_inverse(imgy)})


@np.errstate(all="ignore")      # an overflow is raised, not warned
def fox_blocks(w, imgs: dict) -> tuple[np.ndarray, np.ndarray]:
    """(Phi(dw/dx), Phi(dw/dy)) in one pass over w, with imgs as in
    `word_product` (2x2 matrices or (N, 2, 2) stacks of one N; then so
    are the blocks).

    Keeps the running prefix product P = Phi(w[:k]): a letter g adds P
    to the g-block, a letter g^-1 subtracts the next prefix P Phi(g)^-1:
    the Fox rules dg/dg = 1, d(g^-1)/dg = -g^-1 and
    d(uv)/dg = du/dg + u dv/dg, applied letter by letter.
    The product kernel is picked before the pass: `mat2_product` on
    (2, 2, N) entry layouts from STACK_KERNEL_MIN_ITEMS images, else `@`
    with no conversion, cheaper at one point (see that constant).
    Raises OverflowError when a block is not finite.
    """
    entry = imgs[X].ndim == 3 and len(imgs[X]) >= STACK_KERNEL_MIN_ITEMS
    if entry:
        imgs = {a: mat2_entries(m) for a, m in imgs.items()}
        product, prefix = mat2_product, E2[:, :, None]
    else:
        product, prefix = np.matmul, E2
    blocks = {X: np.zeros(imgs[X].shape, dtype=complex),
              Y: np.zeros(imgs[X].shape, dtype=complex)}
    for a in w:
        if a > 0:
            blocks[a] += prefix
        prefix = product(prefix, imgs[a])
        if a < 0:
            blocks[-a] -= prefix
    if entry:
        blocks = {g: mat2_stack(b) for g, b in blocks.items()}
    return _check_finite(blocks[X]), _check_finite(blocks[Y])

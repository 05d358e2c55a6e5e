import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fig8torsion import words
from fig8torsion.errors import WordParseError
from fig8torsion.linalg import E2, STACK_KERNEL_MIN_ITEMS, mat2_inverse
from fig8torsion.riley import RELATOR, rep_stacks, solve_t
from fig8torsion.words import (X, Y, fox_blocks, fox_jacobian, parse_word,
                               reduce_word, word_concat, word_inverse,
                               word_product, word_to_text)
from fox_reference import (ENTRY_STACK_LENGTHS, GroupRingElement,
                           evaluate_group_ring, evaluate_word, fox_derivative,
                           product_bound, spread_stack)


def random_unimodular(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m / np.sqrt(np.linalg.det(m))


def random_word(rng, n):
    return tuple(rng.choice([X, -X, Y, -Y]) for _ in range(n))


def test_parse_basic():
    assert parse_word("xYXy") == (X, -Y, -X, Y)
    assert parse_word("") == ()
    assert parse_word("xX") == ()
    for text in ("xz", "x^3", "1", "x y"):
        with pytest.raises(WordParseError):
            parse_word(text)


def test_parse_print_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = reduce_word(random_word(rng, int(rng.integers(0, 12))))
        assert parse_word(word_to_text(w)) == w


def test_inverse_concat():
    w = parse_word("xYXy")
    assert word_to_text(word_inverse(w)) == "YxyX"
    longitude = word_concat(word_inverse(w), parse_word("XyxY"))
    assert word_to_text(longitude) == "YxyXXyxY"
    assert word_concat(w, word_inverse(w)) == ()


def test_evaluate_word():
    mx = np.array([[2, 1], [0, 0.5]], dtype=complex)
    my = np.array([[2, 0], [-1, 0.5]], dtype=complex)
    assert np.allclose(evaluate_word((), mx, my), E2)
    assert np.allclose(evaluate_word(parse_word("x"), mx, my), mx)


@pytest.mark.parametrize("n", ENTRY_STACK_LENGTHS)
def test_word_product_items_are_one_point_calls(n):
    """Item k of `word_product` on a stack has the bits of the call on
    the single matrices of item k, and the stack agrees with a fold of
    `@` to `product_bound`, on entries spread over e^+-20 (the four
    letters' images are independent, so the words are not reduced)."""
    rng = np.random.default_rng(100 + n)
    imgs = {a: spread_stack(rng, n) for a in (X, -X, Y, -Y)}
    for length in (0, 1, 2, 8, 12):
        w = random_word(rng, length)
        stacked = word_product(w, imgs)
        assert stacked.shape == (n, 2, 2)
        for k in range(n):
            one = word_product(w, {a: m[k] for a, m in imgs.items()})
            assert np.array_equal(one, stacked[k]), (w, k)
        if not w:
            assert np.array_equal(stacked, np.broadcast_to(E2, (n, 2, 2)))
            continue
        factors = [imgs[a] for a in w]
        gap = np.abs(stacked - reduce(np.matmul, factors))
        assert (gap <= product_bound(factors)).all(), w


def test_evaluate_longitude_geometric_trace():
    pt = solve_t(1.0)[0]
    imgs = rep_stacks(pt.s, pt.t)
    mx, my = imgs[X][0], imgs[Y][0]
    from fig8torsion.riley import LONGITUDE
    assert abs(np.trace(evaluate_word(LONGITUDE, mx, my)) - (-2)) < 1e-12


def test_evaluate_homomorphism_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = reduce_word(random_word(rng, 6))
        b = reduce_word(random_word(rng, 6))
        mx, my = random_unimodular(rng), random_unimodular(rng)
        lhs = evaluate_word(word_concat(a, b), mx, my)
        rhs = evaluate_word(a, mx, my) @ evaluate_word(b, mx, my)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1, np.max(np.abs(rhs)))


def test_fox_axioms():
    one = GroupRingElement({(): 1})
    assert fox_derivative((X,), X) == one
    assert fox_derivative((Y,), X) == GroupRingElement()
    assert fox_derivative((-X,), X) == GroupRingElement({(-X,): -1})
    # product rule: d(xy)/dy = x
    assert fox_derivative(parse_word("xy"), Y) == GroupRingElement({(X,): 1})
    # d(xYXy)/dx = 1 - x y^-1 x^-1
    assert fox_derivative(parse_word("xYXy"), X) == GroupRingElement(
        {(): 1, parse_word("xYX"): -1})


reduced_words = st.lists(st.sampled_from([X, -X, Y, -Y]),
                         max_size=12).map(reduce_word)


@st.composite
def unimodular(draw):
    """SL(2, C) matrix with entries of modulus <= 2: entries with real
    and imaginary parts in [-1, 1], scaled by 1/sqrt(det), |det| >= 1/2.

    A draw with |det| < 1/2 is made valid instead of rejected: |Re a|
    and |Re d| are moved into [3/4, 1], so |ad| >= 9/16, and c changes
    sign if that enlarges |det|; as |ad - bc|^2 + |ad + bc|^2 =
    2 (|ad|^2 + |bc|^2), |det| >= |ad| >= 9/16 then."""
    part = st.floats(-1, 1)
    a, b, c, d = (complex(draw(part), draw(part)) for _ in range(4))
    if abs(a * d - b * c) < 0.5:
        a, d = (complex(math.copysign(0.75 + 0.25 * abs(z.real), z.real),
                        z.imag) for z in (a, d))
        if abs(a * d + b * c) > abs(a * d - b * c):
            c = -c
    det = a * d - b * c
    assert abs(det) >= 0.5
    return np.array([[a, b], [c, d]], dtype=complex) / np.sqrt(det)


@given(reduced_words, unimodular(), unimodular())
def test_fox_fundamental_identity_random(r, mx, my):
    # sum_g Phi(dr/dg) (Phi(g) - E) = Phi(r) - E, for the symbolic
    # derivatives and for the one-pass evaluation
    rhs = evaluate_word(r, mx, my) - E2
    tol = 1e-9 * max(1, np.max(np.abs(rhs)))
    symbolic = (evaluate_group_ring(fox_derivative(r, X), mx, my),
                evaluate_group_ring(fox_derivative(r, Y), mx, my))
    for phix, phiy in (symbolic, fox_jacobian(r, mx, my)):
        lhs = phix @ (mx - E2) + phiy @ (my - E2)
        assert np.max(np.abs(lhs - rhs)) <= tol


def test_fox_jacobian_matches_symbolic_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        w = reduce_word(random_word(rng, int(rng.integers(0, 16))))
        mx, my = random_unimodular(rng), random_unimodular(rng)
        phix, phiy = fox_jacobian(w, mx, my)
        assert np.array_equal(
            phix, evaluate_group_ring(fox_derivative(w, X), mx, my))
        assert np.array_equal(
            phiy, evaluate_group_ring(fox_derivative(w, Y), mx, my))


def stack_images(imgx, imgy):
    return {X: imgx, Y: imgy, -X: mat2_inverse(imgx), -Y: mat2_inverse(imgy)}


def test_fox_entry_path_matches_matmul_items(monkeypatch):
    """A stack of STACK_KERNEL_MIN_ITEMS or more takes the pass on entry
    layouts, one `mat2_product` per letter, and each item alone takes
    `@`, with no `mat2_product` call; both add up the same prefix
    products.  A prefix of k unimodular images rounds by a few
    k eps prod_{i<=k} ||Phi(g_i)||_F (Higham, ch. 3), and ||Phi(g)||_F >=
    sqrt(2), so the prefixes of w sum to a few len(w) eps prod_w
    ||Phi(g)||_F: each block item agrees to 4 len(w) eps of that product.
    A single 2x2 call and its N = 1 stack give the same bits."""
    product_calls = []
    product = words.mat2_product

    def counting(a, b):
        product_calls.append(b.shape[-1])
        return product(a, b)

    monkeypatch.setattr(words, "mat2_product", counting)
    rng = np.random.default_rng(15)
    n = STACK_KERNEL_MIN_ITEMS + 5
    s = np.exp(rng.uniform(-1.2, 1.2, n) + 1j * rng.uniform(0, 7, n))
    variety = rep_stacks(s, np.array([solve_t(z)[0].t for z in s]))
    cases = [(RELATOR, variety)] + [
        (reduce_word(random_word(rng, 16)), stack_images(
            *(np.array([random_unimodular(rng) for _ in range(n)])
              for _ in range(2))))
        for _ in range(20)]
    eps = np.finfo(float).eps
    for w, imgs in cases:
        del product_calls[:]
        blocks = fox_blocks(w, imgs)
        assert product_calls == [n] * len(w)
        norms = {a: np.linalg.norm(m, axis=(1, 2)) for a, m in imgs.items()}
        bound = 4 * len(w) * eps * np.prod([norms[a] for a in w], axis=0)
        for k in range(n):
            item = fox_blocks(w, {a: m[k:k + 1] for a, m in imgs.items()})
            single = fox_blocks(w, {a: m[k] for a, m in imgs.items()})
            for block, one, alone in zip(blocks, item, single):
                assert np.abs(block[k] - one[0]).max() <= bound[k]
                assert np.array_equal(one[0], alone)
        assert product_calls == [n] * len(w)


def test_fox_entry_path_raises_on_one_overflowing_item():
    rng = np.random.default_rng(16)
    n = STACK_KERNEL_MIN_ITEMS
    imgx, imgy = (np.array([random_unimodular(rng) for _ in range(n)])
                  for _ in range(2))
    imgs = stack_images(imgx, imgy)
    imgs[Y][n // 2], imgs[-Y][n // 2] = 1e200 * E2, 1e-200 * E2
    with pytest.raises(OverflowError):
        fox_blocks(parse_word("xyyX"), imgs)
    with pytest.raises(OverflowError):
        fox_blocks(parse_word("xyyX"), {a: m[n // 2:n // 2 + 1]
                                        for a, m in imgs.items()})


def test_evaluate_group_ring():
    mx = np.array([[2, 1], [0, 0.5]], dtype=complex)
    my = np.array([[2, 0], [-1, 0.5]], dtype=complex)
    one = GroupRingElement({(): 1})
    assert np.allclose(evaluate_group_ring(one, mx, my), E2)
    one_minus_x = GroupRingElement({(): 1, (X,): -1})
    assert np.allclose(evaluate_group_ring(one_minus_x, mx, my),
                       np.array([[-1, -1], [0, 0.5]], dtype=complex))


def test_relator_derivative_determinant_on_variety():
    # det Phi(dr/dy) = +-(2 - u) * 2(u - 1) at variety points
    from fig8torsion.riley import RELATOR, trace_u
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = complex(rng.normal(), rng.normal())
        if abs(s) < 0.2:
            continue
        for pt in solve_t(s):
            u = trace_u(s)
            if abs(2 - u) < 1e-3:
                continue
            imgs = rep_stacks(pt.s, pt.t)
            mx, my = imgs[X][0], imgs[Y][0]
            d = np.linalg.det(
                evaluate_group_ring(fox_derivative(RELATOR, Y), mx, my))
            expect = (2 - u) * 2 * (u - 1)
            assert min(abs(d - expect), abs(d + expect)) \
                <= 1e-8 * max(1, abs(expect))


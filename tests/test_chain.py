import numpy as np
import pytest

from fig8torsion.chain import (ChainComplex, is_acyclic, torsion,
                               torsion_with_basis_perturbation)
from fig8torsion.errors import DimensionMismatch, NotAcyclic
from fig8torsion.linalg import E2
from fig8torsion.riley import rep_matrices, solve_t
from fig8torsion.formulas import presentation_complex
from fig8torsion.verify import random_acyclic_complex
from fig8torsion.words import X, Y, evaluate_group_ring, fox_derivative, parse_word


def two_term(mat) -> ChainComplex:
    m = np.asarray(mat, dtype=complex)
    return ChainComplex(dims=(m.shape[0], m.shape[1]), boundaries=(m,))


def torus_complex_at(pt):
    # peripheral torus: generators map to rho(x) and rho(l), which
    # commute on the variety
    from fig8torsion.riley import longitude_matrix_word
    mx, _ = rep_matrices(pt)
    ml = longitude_matrix_word(pt)
    comm = parse_word("xyXY")
    drdx = evaluate_group_ring(fox_derivative(comm, X), mx, ml)
    drdy = evaluate_group_ring(fox_derivative(comm, Y), mx, ml)
    return presentation_complex(mx, ml, drdx, drdy)


def test_malformed_complex():
    with pytest.raises(DimensionMismatch):
        ChainComplex(dims=(2, 2, 1), boundaries=(np.eye(2, dtype=complex),))
    with pytest.raises(DimensionMismatch):
        ChainComplex(dims=(2, 3), boundaries=(np.eye(2, dtype=complex),))
    with pytest.raises(DimensionMismatch):        # d o d != 0
        ChainComplex(dims=(1, 1, 1),
                     boundaries=(np.array([[1.0]], dtype=complex),
                                 np.array([[1.0]], dtype=complex)))


def test_is_acyclic():
    assert is_acyclic(two_term(E2))
    assert not is_acyclic(two_term(np.zeros((1, 1))))
    # the one rank threshold: sigma > 1e-9 * max(1, sigma_max) counts
    tiny = two_term(np.diag([1.0, 2e-9]))
    assert is_acyclic(tiny)
    assert abs(torsion(tiny).value - 5e8) <= 1e-12 * 5e8
    # twisted torus complex at s = 2: tr rho(x) = 2.5 != 2
    assert is_acyclic(torus_complex_at(solve_t(2.0)[0]))


def test_torsion_conventions():
    assert abs(torsion(two_term([[2.0]])).value - 0.5) < 1e-14
    assert abs(torsion(two_term(E2)).value - 1.0) < 1e-14
    cx = ChainComplex(dims=(1, 2, 1),
                      boundaries=(np.array([[0.0, 3.0]], dtype=complex),
                                  np.array([[1.0], [0.0]], dtype=complex)))
    assert abs(abs(torsion(cx).value) - 1 / 3) < 1e-14


def test_torsion_not_acyclic():
    with pytest.raises(NotAcyclic):
        torsion(two_term(np.zeros((1, 1))))
    with pytest.raises(NotAcyclic):
        torsion(two_term(np.diag([1.0, 5e-10])))
    with pytest.raises(NotAcyclic):
        torsion_with_basis_perturbation(two_term(np.zeros((1, 1))), 0)


def test_perturbation_fixed_fixtures():
    for seed in range(10):
        assert abs(torsion_with_basis_perturbation(two_term(E2), seed).value
                   - 1.0) < 1e-10
        assert abs(torsion_with_basis_perturbation(two_term([[2.0]]), seed).value
                   - 0.5) < 1e-10


def test_perturbation_torus_complex():
    cx = torus_complex_at(solve_t(2.0)[0])
    ref = torsion(cx).value
    for seed in range(10):
        val = torsion_with_basis_perturbation(cx, seed).value
        assert abs(val - ref) <= 1e-8 * max(1, abs(ref))


def test_basis_independence_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cx = random_acyclic_complex(rng)
        ref = torsion(cx).value
        for seed in range(10):
            val = torsion_with_basis_perturbation(cx, seed).value
            assert abs(val - ref) <= 1e-8 * max(1, abs(ref))


def test_preferred_basis_scaling_parity():
    # scaling one preferred basis vector of C_i by lam scales tau by
    # lam^(+-1) with the parity of i
    lam = 3.0
    base = ChainComplex(dims=(1, 2, 1),
                        boundaries=(np.array([[0.0, 3.0]], dtype=complex),
                                    np.array([[1.0], [0.0]], dtype=complex)))
    tau0 = torsion(base).value
    # scale the preferred basis of C_0 (even degree): tau scales by lam
    scaled0 = ChainComplex(dims=(1, 2, 1),
                           boundaries=(base.boundaries[0] / lam,
                                       base.boundaries[1]))
    assert abs(torsion(scaled0).value - tau0 * lam) < 1e-12
    # scale the preferred basis of C_2 (even degree): tau scales by lam
    scaled2 = ChainComplex(dims=(1, 2, 1),
                           boundaries=(base.boundaries[0],
                                       base.boundaries[1] * lam))
    assert abs(torsion(scaled2).value - tau0 * lam) < 1e-12
    # scale a preferred basis vector of C_1 (odd degree): tau scales by 1/lam
    scale_row = np.diag([lam, 1.0]).astype(complex)
    scaled1 = ChainComplex(dims=(1, 2, 1),
                           boundaries=(base.boundaries[0] @ scale_row,
                                       np.linalg.inv(scale_row) @ base.boundaries[1]))
    assert abs(torsion(scaled1).value - tau0 / lam) < 1e-12

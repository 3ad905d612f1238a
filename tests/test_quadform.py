"""Phase-space quadratic form tests."""
import numpy as np
import pytest

from qsemi import (
    QuadraticForm,
    block_decompose,
    conjugate_by_linear,
    evaluate,
    hamilton_map,
    shear_transform,
    standard_J,
)
from qsemi.errors import DimensionMismatch, NotPSDWithinTol, SingularTransform
from qsemi.fixtures import heat, kolmogorov, shifted_diagonal


def test_standard_J_n1():
    assert np.array_equal(standard_J(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_standard_J_is_built_once_and_read_only():
    J = standard_J(3)
    I, Z = np.eye(3), np.zeros((3, 3))
    assert np.array_equal(J, np.block([[Z, I], [-I, Z]]))
    assert standard_J(3) is J
    assert not J.flags.writeable
    with pytest.raises(ValueError):
        J[0, 0] = 1.0


def test_standard_J_orthogonal():
    J = standard_J(3)
    assert np.allclose(J @ J.T, np.eye(6), atol=1e-15)


def test_standard_J_inverse_is_minus():
    J = standard_J(2)
    assert np.allclose(np.linalg.inv(J), -J, atol=1e-14)


def test_hamilton_map_heat():
    F = hamilton_map(heat(1))
    assert np.allclose(F, np.array([[0.0, 1.0], [0.0, 0.0]]), atol=1e-15)


def test_hamilton_map_harmonic():
    from qsemi.fixtures import harmonic
    assert np.allclose(hamilton_map(harmonic(1)), standard_J(1) / 2, atol=1e-15)


def test_hamilton_map_kolmogorov_nilpotency():
    # hand multiplication: Im F sends e2 -> e1/2, e3 -> -e4/2, else 0
    ImF = hamilton_map(kolmogorov()).imag
    expected = np.zeros((4, 4))
    expected[0, 1] = 0.5
    expected[3, 2] = -0.5
    assert np.allclose(ImF, expected, atol=1e-15)
    assert np.allclose(ImF @ ImF, 0, atol=1e-15)


def test_evaluate_diagonal_isotropic():
    assert abs(evaluate(shifted_diagonal(), [1.0, 1.0])) < 1e-15


def test_evaluate_heat():
    assert abs(evaluate(heat(1), [3.0, 2.0]) - 4.0) < 1e-14


def test_evaluate_against_double_loop():
    rng = np.random.default_rng(31)
    Re = rng.standard_normal((4, 4))
    q = QuadraticForm(2, (Re @ Re.T + 1j * (lambda S: S + S.T)(
        rng.standard_normal((4, 4)))))
    X = rng.standard_normal(4)
    direct = sum(q.Q[i, j] * X[i] * X[j] for i in range(4) for j in range(4))
    assert abs(evaluate(q, X) - direct) < 1e-12


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(heat(1), [1.0, 2.0, 3.0])


def test_evaluate_quadratic_scaling():
    rng = np.random.default_rng(37)
    q = heat(2)
    X = rng.standard_normal(4)
    s = 1.7
    assert abs(evaluate(q, s * X) - s ** 2 * evaluate(q, X)) < 1e-12


def test_conjugate_identity():
    q = kolmogorov()
    assert np.allclose(conjugate_by_linear(q, np.eye(4)).Q, q.Q, atol=1e-15)


def test_shear_turns_shifted_diagonal_into_heat():
    q = shifted_diagonal()
    L = shear_transform(np.array([[1.0]]))
    qt = conjugate_by_linear(q, L)
    assert np.allclose(qt.Q, heat(1).Q, atol=1e-14)


def test_shear_is_symplectic():
    L = shear_transform(np.array([[1.0]]))
    J = standard_J(1)
    assert np.allclose(L.T @ J @ L, J, atol=1e-15)


def test_conjugate_matches_substitution():
    rng = np.random.default_rng(41)
    q = kolmogorov()
    T = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    qt = conjugate_by_linear(q, T)
    for _ in range(5):
        X = rng.standard_normal(4)
        assert abs(evaluate(qt, X) - evaluate(q, T @ X)) < 1e-12


def test_conjugate_roundtrip():
    rng = np.random.default_rng(43)
    q = kolmogorov()
    T = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    back = conjugate_by_linear(conjugate_by_linear(q, T), np.linalg.inv(T))
    assert np.linalg.norm(back.Q - q.Q) < 1e-10


def test_hamilton_map_symplectic_conjugation():
    # for symplectic T the Hamilton map transforms by similarity
    q = kolmogorov()
    T = shear_transform(np.array([[0.7, 0.2], [0.2, -0.4]]))
    qt = conjugate_by_linear(q, T)
    lhs = hamilton_map(qt)
    rhs = np.linalg.inv(T) @ hamilton_map(q) @ T
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_conjugate_rejects_singular():
    with pytest.raises(SingularTransform):
        conjugate_by_linear(heat(1), np.zeros((2, 2)))


def test_block_decompose_heat_symbol():
    t = 0.3
    bf = block_decompose(t * heat(1).Q)
    assert np.allclose(bf.R, 0, atol=1e-15)
    assert np.allclose(bf.L, 0, atol=1e-15)
    assert np.allclose(bf.B, 2 * t * np.eye(1), atol=1e-15)


def test_block_decompose_fokker_planck_symbol():
    # matrix of m(x, xi) = xi^2/2 - 2 i x xi under m(X) = MX.X
    m = np.array([[0.0, -1j], [-1j, 0.5]], dtype=complex)
    bf = block_decompose(m)
    assert np.allclose(bf.R, [[0.0]], atol=1e-15)
    assert np.allclose(bf.L, [[-2j]], atol=1e-15)
    assert np.allclose(bf.B, [[1.0]], atol=1e-15)


def test_block_roundtrip_random():
    rng = np.random.default_rng(47)
    S = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    S = (S + S.T) / 2
    bf = block_decompose(S)
    assert np.allclose(np.block([[bf.R, bf.L.T], [bf.L, bf.B]]) / 2, S, atol=1e-14)


def test_form_symmetrization_warning():
    Q = np.array([[1.0, 0.2], [0.0, 1.0]], dtype=complex)
    with pytest.warns(UserWarning):
        q = QuadraticForm(1, Q)
    assert np.allclose(q.Q, (Q + Q.T) / 2, atol=1e-15)


def test_form_rejects_nonaccretive():
    with pytest.raises(NotPSDWithinTol):
        QuadraticForm(1, np.diag([-1.0, 0.0]).astype(complex))

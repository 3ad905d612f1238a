"""Phase-space quadratic form tests."""
import re
import warnings

import numpy as np
import pytest

from qsemi import (
    QuadraticForm,
    block_decompose,
    hamilton_map,
    shear_transform,
    standard_J,
)
from qsemi.errors import InvalidTolerance, NotPSDWithinTol
from qsemi.fixtures import fixture_names, get_fixture, heat, kolmogorov, shifted_diagonal
from qsemi.quadform import _congruence_unchecked, embed_xx

from oracles import conjugate_by_linear


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
        assert abs(X @ qt.Q @ X - (T @ X) @ q.Q @ (T @ X)) < 1e-12


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


def test_an_asymmetric_q_near_float_range_is_symmetrized_with_no_runtime_warning():
    # the asymmetry is taken on Q / 2^e: unscaled, Q - Q^T overflowed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q = QuadraticForm(1, np.array([[1.0, 1.7e308], [-1.7e308, 1.0]]))
    assert [w.category for w in caught] == [UserWarning]
    assert str(caught[0].message).startswith("symmetrizing Q")
    assert np.array_equal(q.Q, np.eye(2))


def test_a_symmetric_q_near_float_range_is_kept_with_no_runtime_warning():
    # halving before the sum: (Q + Q^T) / 2 overflowed in the sum
    Q = np.array([[1.7e308, 1e150], [1e150, 1.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = QuadraticForm(1, Q)
        assert np.linalg.eigvalsh(Q.real)[0] > 0
        sheared = _congruence_unchecked(q, shear_transform([[1e-160]]))
    assert np.array_equal(q.Q, Q)
    assert np.isfinite(sheared.Q).all() and np.array_equal(sheared.Q, sheared.Q.T)


@pytest.mark.parametrize("name", fixture_names())
def test_a_fixture_is_the_form_quadraticform_checks(name):
    # fixtures are built with no checks: each is an exact constant that
    # QuadraticForm accepts as it is, with no warning, to the bit
    form = get_fixture(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checked = QuadraticForm(form.n, form.Q)
    assert type(form) is QuadraticForm
    assert (form.n, form.tol, form.Q.dtype) == (checked.n, checked.tol, checked.Q.dtype)
    assert form.Q.tobytes() == checked.Q.tobytes()


def test_embed_xx_is_the_form_on_x_alone():
    # (W x).x at X = (x, xi), for each W of a stack
    rng = np.random.default_rng(48)
    W = rng.standard_normal((3, 2, 2))
    W = W + W.mT
    E = embed_xx(W)
    assert E.shape == (3, 4, 4) and E.dtype == complex
    assert np.array_equal(E[:, :2, :2], W)
    assert not E[:, 2:].any() and not E[:, :, 2:].any()
    X = rng.standard_normal(4)
    assert np.allclose(E @ X @ X, np.einsum("kij,i,j->k", W, X[:2], X[:2]),
                       rtol=1e-14, atol=0)


def test_form_rejects_nonaccretive():
    with pytest.raises(NotPSDWithinTol):
        QuadraticForm(1, np.diag([-1.0, 0.0]).astype(complex))


@pytest.mark.parametrize("c", [2.0 ** -60, 2.0 ** -20, 1.0, 2.0 ** 20])
def test_the_psd_floor_is_relative_to_the_form(c):
    # lambda_min(Re Q) >= -tol |Q|_F: the floor tol max(1, |Q|_F) let every
    # c diag(-1, 1) with c below tol through
    with pytest.raises(NotPSDWithinTol, match=re.escape(f"lambda_min = {-c:.3e}")):
        QuadraticForm(1, c * np.diag([-1.0, 1.0]))
    assert QuadraticForm(1, c * np.diag([1.0, 0.0])).Q[0, 0] == c
    assert not QuadraticForm(1, np.zeros((2, 2))).Q.any()


@pytest.mark.parametrize("tol", [float("nan"), 2.0, 1e300, -1.0])
def test_a_tolerance_outside_the_unit_interval_is_refused_before_the_psd_check(tol):
    # the PSD floor -tol |Q|_F let diag(-1, 1) through at nan, 2 and 1e300,
    # and at -1 refused diag(1, 1) as not PSD
    for Q in (np.diag([-1.0, 1.0]), np.eye(2)):
        with pytest.raises(InvalidTolerance, match="must be positive and below 1"):
            QuadraticForm(1, Q, tol)

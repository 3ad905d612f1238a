"""Factorization machinery tests: polar factors, three-factor splitting,
Strang middle term, gamma selection, end-to-end decomposition."""
import numpy as np
import pytest
import scipy.linalg as sla

from qsemi import (
    QuadraticForm,
    build_decomposition,
    isotropic_cone_check,
    kernel_from_symbol,
    mehler_symbol,
    polar_factors,
    select_gamma,
    singular_space,
    standard_J,
    strang_middle,
    unitary_factorization,
    verify_decomposition,
)
from qsemi import decompose
from qsemi.decompose import _three_factor_product
from qsemi.errors import RadiusExceeded, TimeTooLarge
from qsemi.fixtures import harmonic, heat, kolmogorov, shifted_diagonal
from qsemi.mehler import kernel_right_transport
from qsemi.singular import graph_condition


def random_accretive(rng, n, norm=1.0):
    G = rng.standard_normal((2 * n, 2 * n))
    S = rng.standard_normal((2 * n, 2 * n))
    Q = G @ G.T + 1j * (S + S.T)
    return QuadraticForm(n, Q * (norm / np.linalg.norm(Q, 2)))


# --- polar factors ----------------------------------------------------------

def test_polar_real_form():
    q = shifted_diagonal()
    pol = polar_factors(q, 0.08)
    assert np.allclose(pol.A, q.Q.real, atol=1e-11)
    assert np.allclose(pol.B, 0, atol=1e-11)


def test_polar_imaginary_form():
    W = np.array([[0.3, 0.1], [0.1, -0.2]])
    q = QuadraticForm(1, 1j * W)
    pol = polar_factors(q, 0.05)
    assert np.allclose(pol.A, 0, atol=1e-12)
    assert np.allclose(pol.B, W, atol=1e-11)


def test_polar_kolmogorov():
    q = kolmogorov()
    rep = singular_space(q)
    pol = polar_factors(q, 0.05)
    assert pol.recon_residual < 1e-10
    assert np.linalg.eigvalsh(pol.A).min() >= -1e-12
    assert isotropic_cone_check(pol.A, rep) < 1e-9


def test_polar_vanishes_on_singular_space_all_fixtures():
    for q in (heat(2), harmonic(1), kolmogorov(), shifted_diagonal()):
        rep = singular_space(q)
        pol = polar_factors(q, 0.03)
        assert isotropic_cone_check(pol.A, rep) < 1e-8


# --- unitary factorization ----------------------------------------------------

def test_unitary_single_block_W():
    Wp = np.array([[0.4, 0.1], [0.1, -0.3]])
    B = np.zeros((4, 4))
    B[:2, :2] = Wp
    uni = unitary_factorization(B, 0.1)
    assert np.allclose(uni.W, 2 * Wp, atol=1e-12)
    assert np.allclose(uni.D, 0, atol=1e-12)
    assert np.allclose(uni.M, 0, atol=1e-12)


def test_unitary_single_block_D():
    Dp = np.array([[0.5, 0.0], [0.0, -0.2]])
    B = np.zeros((4, 4))
    B[2:, 2:] = Dp
    uni = unitary_factorization(B, 0.1)
    assert np.allclose(uni.D, -Dp, atol=1e-12)
    assert np.allclose(uni.M, 0, atol=1e-12)
    assert np.allclose(uni.W, 0, atol=1e-12)


def test_unitary_random_reconstruction():
    rng = np.random.default_rng(79)
    for n in (2, 5, 10):
        J = standard_J(n)
        for _ in range(5):
            B = rng.standard_normal((2 * n, 2 * n))
            B = (B + B.T) / 2
            t = 0.1 / np.linalg.norm(B, 2)
            uni = unitary_factorization(B, t)
            assert uni.iterations == 0
            assert uni.residual < 1e-13
            recon = _three_factor_product(uni.D, uni.M, uni.W, t, J)
            assert np.linalg.norm(recon - sla.expm(2 * t * J @ B)) < 1e-13
            assert np.abs(uni.D - uni.D.T).max() < 1e-14
            assert np.abs(uni.W - uni.W.T).max() < 1e-14


# --- Strang middle term --------------------------------------------------------

def test_strang_zero_B_returns_A():
    rng = np.random.default_rng(83)
    A = rng.standard_normal((4, 4))
    A = (A + A.T) / 2
    A *= 0.05 / np.linalg.norm(A, 2)
    P = strang_middle(A, np.zeros((4, 4)))
    assert np.allclose(P, A, atol=1e-12)


def test_strang_commuting_scalars():
    a, b = 0.04, 0.005
    A = a * np.eye(4)
    B = b * np.eye(4)
    P = strang_middle(A, B)
    assert np.allclose(P, A - 2 * B, atol=1e-13)


def test_strang_positivity_and_reconstruction():
    rng = np.random.default_rng(89)
    J = standard_J(2)
    for _ in range(10):
        G = rng.standard_normal((4, 4))
        A = G @ G.T
        A *= 0.03 / np.linalg.norm(A, 2)
        H = rng.standard_normal((4, 4))
        C = H @ H.T
        C /= np.linalg.norm(C, 2)
        Asq = sla.sqrtm(A).real
        B = Asq @ C @ Asq / 5.0
        P = strang_middle(A, B)
        assert np.linalg.eigvalsh(P - A / 2).min() >= -1e-10
        recon = (sla.expm(-2j * J @ B) @ sla.expm(-2j * J @ P)
                 @ sla.expm(-2j * J @ B))
        assert np.linalg.norm(recon - sla.expm(-2j * J @ A)) < 1e-12


def test_strang_odd():
    rng = np.random.default_rng(97)
    A = rng.standard_normal((4, 4))
    A = (A + A.T) / 2
    A *= 0.05 / np.linalg.norm(A, 2)
    B = rng.standard_normal((4, 4))
    B = (B + B.T) / 2
    B *= 0.01 / np.linalg.norm(B, 2)
    assert np.allclose(strang_middle(-A, -B), -strang_middle(A, B), atol=1e-11)


def test_strang_radius_guard():
    with pytest.raises(RadiusExceeded):
        strang_middle(0.2 * np.eye(2), np.zeros((2, 2)))


# --- gamma selection ------------------------------------------------------------

def test_gamma_heat_scalar_pencil():
    q = heat(1)
    rep = singular_space(q)
    cert = graph_condition(rep)
    sel = select_gamma(q, rep, cert)
    # A_t = diag(0, 1), NN = diag(0, 1), alpha = 1: gamma_t = 1/10 for all t
    assert np.allclose(sel.gamma_grid, 0.1, atol=1e-9)
    assert abs(sel.gamma - 0.09) < 1e-9


def test_gamma_shifted_diagonal_positive():
    q = shifted_diagonal()
    rep = singular_space(q)
    sel = select_gamma(q, rep, graph_condition(rep),
                       np.logspace(-3, -1, 20))
    assert sel.gamma > 0
    assert sel.t0 >= 0.05


def test_gamma_kolmogorov_stable_across_grid():
    q = kolmogorov()
    rep = singular_space(q)
    sel = select_gamma(q, rep, graph_condition(rep))
    assert sel.gamma > 0
    finite = sel.gamma_grid[np.isfinite(sel.gamma_grid)]
    assert finite.max() / finite.min() < 10


def test_select_gamma_propagates_programming_errors(monkeypatch):
    # only QsemiError and LinAlgError end the t0 prefix; a bug surfaces
    def broken(B, t):
        raise TypeError("broken stage")
    monkeypatch.setattr(decompose, "unitary_factorization", broken)
    q = heat(1)
    rep = singular_space(q)
    with pytest.raises(TypeError, match="broken stage"):
        select_gamma(q, rep, graph_condition(rep))


def test_select_gamma_stop_reason():
    from qsemi.fixtures import fokker_planck
    q = fokker_planck()
    rep = singular_space(q)
    sel = select_gamma(q, rep, graph_condition(rep),
                       np.logspace(-3, np.log10(2), 30))
    assert abs(sel.t0 - 0.539) < 1e-3
    assert sel.stop_reason.startswith("RadiusExceeded: [decompose.strang_middle]")
    q = heat(1)
    rep = singular_space(q)
    assert select_gamma(q, rep, graph_condition(rep)).stop_reason is None


def test_build_one_polar_split_per_grid_point(monkeypatch):
    calls = []
    polar = decompose.polar_factors

    def counted(q, t, **kwargs):
        calls.append(t)
        return polar(q, t, **kwargs)
    monkeypatch.setattr(decompose, "polar_factors", counted)
    build_decomposition(kolmogorov(), 0.05)
    assert len(calls) == len(decompose._default_t_grid()) + 1


# --- end-to-end ------------------------------------------------------------------

def test_build_heat_factors_collapse():
    f = build_decomposition(heat(1), 0.1)
    assert np.allclose(f.G, 0, atol=1e-12)
    assert np.allclose(f.N, 0, atol=1e-12)
    assert np.allclose(f.unitary.D, 0, atol=1e-10)
    assert np.allclose(f.unitary.M, 0, atol=1e-10)
    assert np.allclose(f.unitary.W, 0, atol=1e-10)
    assert f.alpha == 1
    assert abs(f.c_t - 1.0) < 1e-12


def test_build_shifted_diagonal_shears_to_heat():
    f = build_decomposition(shifted_diagonal(), 0.05)
    assert np.allclose(f.G, [[1.0]], atol=1e-10)
    assert np.allclose(f.Gsym, [[1.0]], atol=1e-10)
    assert np.allclose(f.N, 0, atol=1e-12)
    assert np.allclose(f.q_sheared.Q, heat(1).Q, atol=1e-12)


def test_build_kolmogorov_alpha3():
    f = build_decomposition(kolmogorov(), 0.05)
    assert f.alpha == 3
    assert f.gamma > 0
    assert np.linalg.eigvalsh(f.Pt - f.polar.A / 2).min() >= -1e-9


def test_build_rejects_large_time():
    with pytest.raises(TimeTooLarge):
        build_decomposition(heat(1), 5.0)


def test_verify_heat_tight():
    f = build_decomposition(heat(1), 0.1)
    r = verify_decomposition(f)
    assert r["matrix_residual"] < 1e-11
    assert r["kernel_residual"] < 1e-11


def test_verify_fixtures_three_times():
    from qsemi.fixtures import fokker_planck
    fixtures = [heat(1), shifted_diagonal(), kolmogorov(), harmonic(1),
                fokker_planck()]
    for q in fixtures:
        rep = singular_space(q)
        sel = select_gamma(q, rep, graph_condition(rep))
        for t in (0.01, 0.02, 0.05):
            f = build_decomposition(q, t, gamma_sel=sel)
            r = verify_decomposition(f)
            assert r["matrix_residual"] < 1e-9, (q, t)
            assert r["kernel_residual"] < 1e-6, (q, t)


def test_fokker_planck_scalar_prefactor_nontrivial():
    # the transport factor carries trace 2, so c_t = e^t here; the kernel
    # residual is the arbiter that this bookkeeping is exact
    from qsemi.fixtures import fokker_planck
    f = build_decomposition(fokker_planck(), 0.02)
    assert abs(f.c_t - np.exp(0.02)) < 1e-10
    assert verify_decomposition(f)["kernel_residual"] < 1e-12


def test_stage_reconstructions_random_forms():
    """Polar, unitary and Strang reconstructions on random accretive forms."""
    rng = np.random.default_rng(101)
    J = standard_J(1)
    for _ in range(100):
        q = random_accretive(rng, 1, norm=1.0)
        t = rng.uniform(0.005, 0.05)
        pol = polar_factors(q, t)
        assert pol.recon_residual < 1e-10
        uni = unitary_factorization(pol.B, t)
        recon = _three_factor_product(uni.D, uni.M, uni.W, t, J)
        assert np.linalg.norm(recon - sla.expm(2 * t * J @ pol.B)) < 1e-10
        A_m = t * pol.A
        if np.linalg.norm(A_m, 2) < 0.1:
            B_m = A_m / 7.0
            P = strang_middle(A_m, B_m)
            lhs = (sla.expm(-2j * J @ B_m) @ sla.expm(-2j * J @ P)
                   @ sla.expm(-2j * J @ B_m))
            assert np.linalg.norm(lhs - sla.expm(-2j * J @ A_m)) < 1e-10


def test_kolmogorov_splitting_kernel_level():
    """The two classical splitting factors compose to the full kernel.

    exp(t(v dx + dv^2)) factorizes as the anisotropic diffusion
    exp(t(dv - (t/2) dx)^2 + (t^3/12) dx^2) followed by the transport
    exp(t v dx); composing their kernels must reproduce the kernel of the
    generator eta^2 - i v xi exactly.
    """
    t = 0.3
    # full generator: exp(-t q^w) = exp(t(v dx + dv^2)) for q = eta^2 - i v xi
    Qfull = np.zeros((4, 4), dtype=complex)
    Qfull[3, 3] = 1.0
    Qfull[1, 2] = Qfull[2, 1] = -0.5j
    q_full = QuadraticForm(2, Qfull)
    # diffusion factor: (eta - (t/2) xi)^2 + (t^2/12) xi^2
    Q2 = np.zeros((4, 4), dtype=complex)
    Q2[3, 3] = 1.0
    Q2[2, 2] = t ** 2 / 4 + t ** 2 / 12
    Q2[2, 3] = Q2[3, 2] = -t / 2
    q_diff = QuadraticForm(2, Q2)
    Mtrans = np.array([[0.0, 1.0], [0.0, 0.0]])  # v d/dx

    k_diff = kernel_from_symbol(mehler_symbol(q_diff, t))
    k_split = kernel_right_transport(k_diff, Mtrans, t)
    k_full = kernel_from_symbol(mehler_symbol(q_full, t))
    assert abs(k_split.c - k_full.c) < 1e-10 * abs(k_full.c)
    assert np.linalg.norm(k_split.K - k_full.K) < 1e-9

"""Factorization machinery tests: polar factors, three-factor splitting,
Strang middle term, gamma selection, end-to-end decomposition."""
import json
import re
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from qsemi import (
    QuadraticForm,
    build_decomposition,
    get_fixture,
    kernel_from_symbol,
    mehler_inverse_twisted,
    mehler_symbol,
    polar_factors,
    select_gamma,
    shear_transform,
    singular_space,
    standard_J,
    strang_middle,
    twisted_form_matrix,
    unitary_factorization,
    verify_decomposition,
)
from qsemi import cli, decompose, matfun
from qsemi.decompose import _three_factor_product
from qsemi.matfun import Checks, mat_log_principal
from qsemi.errors import (
    BranchCut,
    DegenerateTime,
    GammaCollapsed,
    NonSquare,
    NotPSDWithinTol,
    NotRealWithinTol,
    QsemiError,
    RadiusExceeded,
    TimeTooLarge,
)
from qsemi.fixtures import harmonic, heat, kolmogorov, shifted_diagonal
from qsemi.mehler import (
    inverse_twisted,
    kernel_left_phase,
    kernel_right_dispersion,
    kernel_right_phase,
    kernel_right_transport,
    twisted_sandwich,
)
from qsemi.quadform import embed_cross, embed_xixi
from qsemi.singular import graph_condition

from oracles import conjugate_by_linear, mp_expm, mp_logm


GRAPH_FIXTURES = ("heat", "harmonic", "kolmogorov", "fokker-planck", "shifted-diagonal")


def random_accretive(rng, n, norm=1.0, rank=None):
    G = rng.standard_normal((2 * n, rank or 2 * n))
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
    assert abs(rep.basis.T @ pol.A @ rep.basis).max() < 1e-9


def test_polar_vanishes_on_singular_space_all_fixtures():
    for q in (heat(2), harmonic(1), kolmogorov(), shifted_diagonal()):
        rep = singular_space(q)
        pol = polar_factors(q, 0.03)
        assert abs(rep.basis.T @ pol.A @ rep.basis).max(initial=0.0) < 1e-8


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


def test_unitary_at_t_zero_is_the_limit_of_small_t():
    # S = I, and (D, M, W) = (-B22, -2 B21, 2 B11): the split at t = 1e-3
    # to 1e-7 approaches it at rate t |B|_2^2
    rng = np.random.default_rng(80)
    for n in (1, 2, 5):
        B = rng.standard_normal((2 * n, 2 * n))
        B = (B + B.T) / 2
        zero = unitary_factorization(B, 0)
        assert zero.t == 0.0 and np.array_equal(zero.S, np.eye(2 * n))
        assert zero.residual == 0.0
        for t in (1e-3, 1e-5, 1e-7):
            uni = unitary_factorization(B, t)
            for got, limit in ((uni.D, zero.D), (uni.M, zero.M), (uni.W, zero.W)):
                assert np.linalg.norm(got - limit) <= 4 * t * np.linalg.norm(B, 2) ** 2, (n, t)


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
            recon = _three_factor_product(uni.D, uni.M, uni.W, t)
            assert np.linalg.norm(recon - sla.expm(2 * t * J @ B)) < 1e-13
            assert np.abs(uni.D - uni.D.T).max() < 1e-14
            assert np.abs(uni.W - uni.W.T).max() < 1e-14


# --- closed-form exponentials of the build ----------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 10])
@pytest.mark.parametrize("t", [1e-3, 0.1])
def test_three_factor_product_matches_expm(n, t):
    rng = np.random.default_rng(10 * n + int(t > 0.01))
    J = standard_J(n)
    Z = np.zeros((n, n))
    for _ in range(5):
        D, M, W = rng.standard_normal((3, n, n))
        D, W = D + D.T, W + W.T
        want = (sla.expm(-2 * t * J @ np.block([[Z, Z], [Z, D]]))
                @ sla.expm(-t * J @ np.block([[Z, M.T], [M, Z]]))
                @ sla.expm(t * J @ np.block([[W, Z], [Z, Z]])))
        got = _three_factor_product(D, M, W, t)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def skew(rng, n):
    G = rng.standard_normal((n, n))
    return G - G.T


@pytest.mark.parametrize("source", GRAPH_FIXTURES + ("random-2", "random-5"))
def test_inverse_twisted_cayley_matches_expm(source):
    # exp(2iJ s R_s) as the Cayley transform of F = s J NN, down to s = 1e-12
    # smax, and exactly I at s = 0
    if source.startswith("random"):
        N = skew(np.random.default_rng(3), int(source[-1]))
    else:
        N = graph_condition(singular_space(get_fixture(source))).N
    NN = twisted_form_matrix(N)
    J = standard_J(len(N))
    I = np.eye(2 * len(N))
    smax = 2 ** -0.5 / np.linalg.norm(NN, 2)
    s = smax * np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999])
    Rs, _, cayley = inverse_twisted(N, s, Checks())
    assert np.array_equal(cayley[0], I)
    for k in range(1, len(s)):
        want = sla.expm(2j * J @ (s[k] * Rs[k]))
        # relative to the part beyond I, which is of order s
        assert np.linalg.norm(cayley[k] - want) <= 1e-14 * np.linalg.norm(want - I), s[k]


def test_polar_keeps_its_exponentials():
    rng = np.random.default_rng(5)
    forms = [get_fixture(name) for name in GRAPH_FIXTURES]
    forms += [random_accretive(rng, n) for n in (2, 5)]
    grid = np.logspace(-3, -1, 4)
    for q in forms:
        J = standard_J(q.n)
        stacked = decompose._polar(q, grid, 1e-9, Checks(grid.shape))
        for pol in [polar_factors(q, 0.03)] + [stacked[k] for k in range(len(grid))]:
            S = sla.expm(2 * pol.t * J @ pol.B)
            EA = sla.expm(-2j * pol.t * J @ pol.A)
            assert np.linalg.norm(pol.S - S) <= 1e-14 * np.linalg.norm(S)
            assert np.linalg.norm(pol.EA - EA) <= 1e-14 * np.linalg.norm(EA)


def test_build_middle_term_matches_strang_middle():
    rng = np.random.default_rng(11)
    cases = [(get_fixture(name), 0.03, None) for name in GRAPH_FIXTURES]
    cases += [(random_accretive(rng, n), 0.01, np.logspace(-3, -2, 10)) for n in (2, 5)]
    for q, t, grid in cases:
        f = build_decomposition(q, t, t_grid=grid)
        want = strang_middle(t * f.polar.A, f.s * f.Rs)
        assert np.linalg.norm(t * f.Pt - want) <= 1e-14 * np.linalg.norm(want)


class CountedExpm:
    """scipy.linalg with expm counting its calls and the matrices of each
    stack it gets; called, it counts for the exponential it wraps
    (matfun.expm)."""

    def __init__(self, expm=sla.expm):
        self.calls, self.entries, self.wrapped = 0, 0, expm

    def __getattr__(self, name):
        return getattr(sla, name)

    def expm(self, A):
        self.calls += 1
        self.entries += int(np.prod(np.shape(A)[:-2]))
        return self.wrapped(A)

    __call__ = expm


def test_build_three_exponentials_per_time_point(monkeypatch):
    # two in the polar split, exp(-2itJQ) and exp(2itJA), each with its
    # inverse by matfun.symplectic_inverse: exp(-2itJQ), one matrix over the
    # times, from one matfun.expm_grid entry per time, and exp(2itJA),
    # distinct per time, by matfun.expm; and three logs, the polar split's
    # of exp(-4itJA), the unitary split's of S22^T and the Strang middle
    # term's.  e^{tM} is formed only where the unitary residual is read:
    # decompose reads it at t, one entry, and verify never.
    # verify_decomposition forms its five distinct shadows (the twisted one,
    # on both sides of the middle term, once) in one call of scipy's expm,
    # independently of those closed forms, and takes the kernel's transport
    # from that call too; the symbols of p_t and q take one call of
    # matfun.expm
    counted = CountedExpm(matfun.expm)
    for module in (decompose, matfun):
        monkeypatch.setattr(module, "expm", counted)
    grid = []

    def counted_grid(B, t):
        grid.append(np.size(t))
        return matfun.expm_grid(B, t)
    monkeypatch.setattr(decompose, "expm_grid", counted_grid)
    logs = []
    log = matfun.log_principal

    def counted_log(Z, X, tol, checks):
        logs.append(int(np.prod(np.shape(Z)[:-2])))
        return log(Z, X, tol, checks)
    for module in (decompose, matfun):
        monkeypatch.setattr(module, "log_principal", counted_log)
    f = build_decomposition(kolmogorov(), 0.05)
    points = len(decompose.default_t_grid()) + 1
    assert counted.entries == points
    assert grid == [points]
    assert sum(logs) == 3 * points
    assert f.unitary.residual < 1e-13
    assert counted.entries == points + 1
    # scipy's expm counted wherever the library reaches it
    shadows, counted.calls, counted.entries = CountedExpm(), 0, 0
    monkeypatch.setattr(sla, "expm", shadows.expm)
    verify_decomposition(f)
    assert (shadows.calls, shadows.entries) == (1, 5)
    assert (counted.calls, counted.entries) == (1, 2)
    assert grid == [points]


def test_build_and_symbols_send_no_matrix_to_scipy_expm(monkeypatch):
    # scipy's expm is verify's oracle, so the pipeline it checks must not use it
    def refused(A):
        raise AssertionError("scipy.linalg.expm called")
    monkeypatch.setattr(sla, "expm", refused)
    for q, t in ((kolmogorov(), 0.05), (random_accretive(np.random.default_rng(4), 5), 0.01)):
        build_decomposition(q, t)
        mehler_symbol(q, np.logspace(-3, -1, 7))
    with pytest.raises(AssertionError, match="scipy.linalg.expm called"):
        verify_decomposition(build_decomposition(kolmogorov(), 0.05))


def polar_two_expm(q, t):
    """A and B of polar_factors with every exponential by its own expm and
    every (c tJ)^{-1} by a solve."""
    tJ = t * standard_J(q.n)
    E1, E2 = sla.expm(np.stack([-2j * tJ @ q.Q, -2j * tJ @ q.Q.conj()]))
    A = np.linalg.solve(-4j * tJ, mat_log_principal(E1 @ E2)).real
    A = (A + A.T) / 2
    EAinv = sla.expm(2j * tJ @ A)
    B = np.linalg.solve(2 * tJ, mat_log_principal(EAinv @ E1)).real
    return A, (B + B.T) / 2


def test_polar_factors_match_the_two_expm_route():
    rng = np.random.default_rng(29)
    forms = [get_fixture(name) for name in GRAPH_FIXTURES]
    forms += [random_accretive(rng, n) for n in (1, 2, 5, 10)]
    forms += [random_accretive(rng, n, rank=n) for n in (1, 2, 5)]
    for q in forms:
        for t in (1e-3, 1e-2, 0.05):
            pol = polar_factors(q, t)
            A, B = polar_two_expm(q, t)
            assert np.abs(pol.A - A).max() <= 1e-12 * max(1.0, np.abs(A).max()), (q.n, t)
            assert np.abs(pol.B - B).max() <= 1e-12 * max(1.0, np.abs(B).max()), (q.n, t)


def test_a_planted_imaginary_part_of_s_fails_its_check(monkeypatch):
    # S is the real part of exp(2itJA) exp(-2itJQ): an exp(2itJA) off by a
    # phase leaves S an imaginary part, which its check refuses, alone and
    # at its entry of a stacked pass.  exp(2itJA) is the polar split's only
    # expm call (exp(-2itJQ) is matfun.expm_grid's)
    expm = decompose.expm
    calls = []

    def planted(X):
        calls.append(np.shape(X)[:-2])
        return expm(X) * (1 + 1e-6j)
    monkeypatch.setattr(decompose, "expm", planted)
    with pytest.raises(NotRealWithinTol, match=r"imag part of S has norm .* at its generator"):
        polar_factors(kolmogorov(), 0.05)
    checks = Checks(3)
    decompose._polar(kolmogorov(), np.array([0.01, 0.02, 0.05]), 1e-9, checks)
    assert calls == [(), (3,)]
    assert checks.bad.all()
    assert all(isinstance(e, NotRealWithinTol) and "imag part of S" in str(e)
               for e in checks.errors.values())


def test_polar_forms_b_from_s_when_read():
    # the build never reads B; read, it is the log of S, and at t = 0 Im Q
    q = random_accretive(np.random.default_rng(31), 2)
    J = standard_J(2)
    pol = polar_factors(q, 0.02)
    assert pol._B is None
    assert np.linalg.norm(sla.expm(2 * 0.02 * J @ pol.B) - pol.S) <= 1e-14 * np.linalg.norm(pol.S)
    assert np.array_equal(polar_factors(q, 0.0).B, q.Q.imag)
    stacked = decompose._polar(q, np.array([0.01, 0.02]), 1e-9, Checks(2))
    assert np.array_equal(stacked.B[1], stacked[1].B)


def test_residuals_formed_on_read_match_the_stacked_formulas():
    # the residuals are formed when read, on the entries read: the stacked
    # pass's value at each entry, as the build once formed them all, and the
    # one decompose reports at t, to the bit
    for name in GRAPH_FIXTURES:
        q, t = get_fixture(name), 0.03
        rep = singular_space(q)
        stacked = select_gamma(q, rep, graph_condition(rep), t=t).factors
        u, pol = stacked.unitary, stacked.polar
        res = decompose._fro(_three_factor_product(u.D, u.M, u.W, u.t[:, None, None]) - u.S)
        recon = decompose._fro(pol.EA @ pol.S - pol.E1)
        assert np.array_equal(u.residual, res) and np.array_equal(pol.recon_residual, recon)
        for i in range(len(res)):
            assert (u[i].residual, pol[i].recon_residual) == (res[i], recon[i]), (name, i)
        f = build_decomposition(q, t)
        assert (f.unitary.residual, f.polar.recon_residual) == (res[-1], recon[-1]), name


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


def test_strang_refuses_a_non_finite_entry_before_its_svd():
    A = np.stack([0.01 * np.eye(2), np.full((2, 2), np.nan), 0.2 * np.eye(2)])
    with pytest.raises(NonSquare, match="A or B has non-finite entries") as exc:
        strang_middle(A, np.zeros((3, 2, 2)))
    assert exc.value.index == 1


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
    def broken(S, t, tol, checks):
        raise TypeError("broken stage")
    monkeypatch.setattr(decompose, "_unitary", broken)
    q = heat(1)
    rep = singular_space(q)
    with pytest.raises(TypeError, match="broken stage"):
        select_gamma(q, rep, graph_condition(rep))


def test_select_gamma_stop_reason(monkeypatch):
    # the stop reason is the first failing entry's recorded error: nothing is
    # run again alone to name it
    from qsemi.fixtures import fokker_planck
    q = fokker_planck()
    rep = singular_space(q)
    calls = count_stages(monkeypatch)
    sel = select_gamma(q, rep, graph_condition(rep),
                       np.logspace(-3, np.log10(2), 30))
    assert abs(sel.t0 - 0.539) < 1e-3
    assert sel.stop_reason.startswith("RadiusExceeded: [decompose.strang_middle]")
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)
    q = heat(1)
    rep = singular_space(q)
    assert select_gamma(q, rep, graph_condition(rep)).stop_reason is None


def reference_select_gamma(q, report, cert, t_grid):
    """select_gamma as a loop over the ascending grid, one time at a time,
    through the public stage functions: (gamma, t0, stop_reason), or the
    GammaCollapsed that the gamma loop raises."""
    tol = q.tol
    t_grid = np.sort(t_grid)
    q_sh = conjugate_by_linear(q, shear_transform(cert.Gsym))
    alpha = 2 * report.k0 + 1
    Nmat = twisted_form_matrix(cert.N)
    U = sla.null_space(singular_space(q_sh).basis.T)
    LU = np.hstack([-cert.N, np.eye(q.n)]) @ U  # NN = L^T L
    gammas, pols = [], []
    for t in t_grid:
        try:
            pol = polar_factors(q_sh, t)
        except (QsemiError, np.linalg.LinAlgError) as exc:
            raise GammaCollapsed(f"polar factors failed at t = {t:.3g}: {exc}",
                                 module="decompose", operation="select_gamma") from exc
        Abar = U.T @ pol.A @ U
        lam = np.linalg.eigvalsh(Abar).min()
        if lam <= 0:
            raise GammaCollapsed(f"A_t not positive on the complement of S at t = {t:.3g} "
                                 f"(lambda_min = {lam:.3e})", module="decompose",
                                 operation="select_gamma")
        mu = np.linalg.eigvalsh(LU @ np.linalg.solve(Abar, LU.T)).max()
        gammas.append(1e6 if mu <= tol else t ** (1 - alpha) / (10 * mu))
        pols.append(pol)
    gamma = 0.9 * min(gammas)
    t0, stop = 0.0, None
    for pol in pols:
        t = pol.t
        try:
            decompose._unitary(pol.S, t, tol, Checks())
            s = gamma * t ** alpha
            Rs, _ = mehler_inverse_twisted(cert.N, s)
            lo = np.linalg.eigvalsh(Rs - Nmat).min()
            hi = np.linalg.eigvalsh(2 * Nmat - Rs).min()
            if lo < -1e-10 or hi < -1e-10:
                raise NotPSDWithinTol(f"arctan sandwich margins ({lo:.2e}, {hi:.2e})",
                                      module="decompose", operation="build_decomposition")
            Am, Bm = t * pol.A, s * Rs
            P = strang_middle(Am, Bm)
            for what, gap in (("p_t >= a_t/2", P - Am / 2), ("5B <= A", Am - 5 * Bm)):
                margin = np.linalg.eigvalsh(gap).min()
                if margin < -tol:
                    raise NotPSDWithinTol(f"{what} fails (margin {margin:.3e})",
                                          module="decompose",
                                          operation="build_decomposition")
        except (QsemiError, np.linalg.LinAlgError) as exc:
            stop = f"{type(exc).__name__}: {exc}"
            break
        t0 = t
    return gamma, t0, stop


def stacked_matches_reference(q, t_grid):
    rep = singular_space(q)
    cert = graph_condition(rep)
    try:
        want = reference_select_gamma(q, rep, cert, t_grid)
    except GammaCollapsed as exc:
        with pytest.raises(GammaCollapsed) as got:
            select_gamma(q, rep, cert, t_grid)
        assert str(got.value) == str(exc)
        return str(exc)
    if want[1] == 0.0:
        with pytest.raises(GammaCollapsed, match="no grid point passes"):
            select_gamma(q, rep, cert, t_grid)
        return want[2]
    sel = select_gamma(q, rep, cert, t_grid)
    assert sel.t0 == want[1]
    assert sel.stop_reason == want[2]
    assert abs(sel.gamma - want[0]) <= 1e-12 * want[0]
    return sel.stop_reason


@pytest.mark.parametrize("name", GRAPH_FIXTURES)
def test_stacked_select_gamma_matches_a_loop_over_t_fixtures(name):
    q = get_fixture(name)
    for grid in (np.logspace(-3, -1, 20), np.logspace(-3, np.log10(2), 30),
                 np.linspace(0.05, 3, 12)):
        stacked_matches_reference(q, grid)


@pytest.mark.parametrize("n", [2, 5, 10])
def test_stacked_select_gamma_matches_a_loop_over_t_random(n):
    rng = np.random.default_rng(1000 + n)
    reasons = set()
    for rank in (2 * n, n):
        for _ in range(3):
            q = random_accretive(rng, n, rank=rank)
            for grid in (np.logspace(-3, -1, 20), np.logspace(-3, np.log10(3), 25)):
                reason = stacked_matches_reference(q, grid)
                reasons.add(reason.split(":")[0] if reason else None)
    assert len(reasons) > 1  # the grids end the horizon in more than one way


def test_stacked_select_gamma_matches_a_loop_over_t_on_tilted_singular_spaces():
    # S off the coordinate axes: the graph of the skew TWIST (no shear), and
    # kolmogorov's S sheared by a symmetric G, so that select_gamma's
    # complement is taken of a tilted basis; the reference takes an SVD null
    # space of the sheared form's own S
    G = np.array([[0.3, 0.2], [0.2, -0.4]])
    forms = [QuadraticForm(3, twisted_form_matrix(TWIST)),
             conjugate_by_linear(kolmogorov(), shear_transform(G))]
    for q in forms:
        basis = singular_space(q).basis
        assert np.abs(basis[:q.n]).max() > 0.1 and np.abs(basis[q.n:]).max() > 0.1
        for grid in (np.logspace(-3, -1, 20), np.logspace(-3, np.log10(2), 30)):
            stacked_matches_reference(q, grid)


def test_select_gamma_sorts_a_descending_grid():
    q = get_fixture("fokker-planck")
    rep = singular_space(q)
    cert = graph_condition(rep)
    grid = np.logspace(-3, np.log10(2), 30)
    up, down = (select_gamma(q, rep, cert, g) for g in (grid, grid[::-1]))
    assert down.t0 == up.t0 and down.gamma == up.gamma
    assert down.stop_reason == up.stop_reason
    assert (down.t_grid == up.t_grid).all()


@pytest.mark.parametrize("grid", [[0.0, 0.05, 0.1], [0.01, -0.02], [0.01, np.nan]])
def test_select_gamma_rejects_nonpositive_grid_points(grid):
    q = heat(1)
    rep = singular_space(q)
    with pytest.raises(DegenerateTime, match="is not positive") as exc:
        select_gamma(q, rep, graph_condition(rep), grid)
    assert exc.value.index == int(np.flatnonzero(~(np.array(grid) > 0))[0])


def test_select_gamma_rejects_an_empty_grid():
    q = heat(1)
    rep = singular_space(q)
    with pytest.raises(DegenerateTime, match="empty"):
        select_gamma(q, rep, graph_condition(rep), [])


@pytest.mark.parametrize("t", [0.0, -0.01, np.nan])
def test_build_rejects_nonpositive_time(t):
    with pytest.raises(DegenerateTime):
        build_decomposition(heat(1), t)
    rep = singular_space(heat(1))
    with pytest.raises(DegenerateTime, match="is not positive") as exc:
        select_gamma(heat(1), rep, graph_condition(rep), t=t)
    assert exc.value.index == len(decompose.default_t_grid())


def gamma_t_mpmath(q_sh, cert, t, dps=40):
    """gamma_t of a form with an empty singular space, at dps digits:
    t^(1 - alpha) / (10 mu) for alpha = 3 and mu the largest eigenvalue of the
    pencil (NN, A_t), with A_t from the polar log of exp(-2itJQ) exp(-2itJ conj(Q))."""
    m = q_sh.Q.shape[0]
    J = standard_J(m // 2)
    with mpmath.workdps(dps):
        E = mp_expm(-2j * J @ q_sh.Q, t, dps) * mp_expm(-2j * J @ q_sh.Q.conj(), t, dps)
        A = (-4j * t * mpmath.matrix(J.tolist())) ** -1 * mp_logm(E, dps)
        A = mpmath.matrix([[mpmath.re(A[r, c] + A[c, r]) / 2 for c in range(m)]
                           for r in range(m)])
        Linv = mpmath.cholesky(A) ** -1
        NN = mpmath.matrix(twisted_form_matrix(cert.N).tolist())
        mu = max(mpmath.re(e) for e in mpmath.eig(Linv * NN * Linv.T)[0])
        return float(mpmath.mpf(t) ** -2 / (10 * mu))


def test_gamma_rank_n_matches_high_precision():
    """gamma_t on rank-n forms, where A_t has eigenvalues of order 1e-9 to
    1e-12 at t = 1e-3 that amplify rounding in the polar log, against
    40-digit mpmath.  At n = 5 that rounding of A_t itself reaches 5e-6 at
    t = 1e-3 and 2e-8 at t = 1e-2, whichever reduction of the pencil reads it."""
    cases = [(seed, 1 + seed % 2, 1e-3, 1e-6) for seed in range(12)]
    cases += [(seed, 5, t, bound) for t, bound in ((1e-3, 1e-5), (1e-2, 1e-7))
              for seed in (100, 101, 102)]
    for seed, n, t, bound in cases:
        q = random_accretive(np.random.default_rng(seed), n, rank=n)
        rep = singular_space(q)
        assert rep.k0 == 1 and rep.dim == 0
        cert = graph_condition(rep)
        got = select_gamma(q, rep, cert, [t]).gamma_grid[0]
        want = gamma_t_mpmath(conjugate_by_linear(q, shear_transform(cert.Gsym)), cert, t)
        assert abs(got - want) <= bound * want, (seed, n, t)


def pencil_forms():
    """The graph fixtures, and forms with k0 = 0 (Re Q > 0) at n = 1, 2, 5, 10."""
    for name in GRAPH_FIXTURES:
        yield name, get_fixture(name)
    for n in (1, 2, 5, 10):
        yield f"k0=0-n={n}", random_accretive(np.random.default_rng(500 + n), n)


@pytest.mark.parametrize("name, q", list(pencil_forms()),
                         ids=[name for name, _ in pencil_forms()])
def test_gamma_reads_the_pencils_largest_eigenvalue(name, q):
    # select_gamma's closed form, mu_t = lambda_max(LU Abar^-1 (LU)^T) for
    # NN = L^T L, against scipy's generalized eigensolver of the pencil
    # (U^T NN U, Abar) on the same U and A_t
    rep = singular_space(q)
    cert = graph_condition(rep)
    grid = decompose.default_t_grid()
    sel = select_gamma(q, rep, cert, grid)
    U = np.linalg.qr(shear_transform(-cert.Gsym) @ rep.basis,
                     mode="complete")[0][:, rep.dim:]
    q_sh = decompose._congruence_unchecked(q, shear_transform(cert.Gsym))
    A = decompose._polar(q_sh, grid, q.tol, Checks()).A
    Nbar = U.T @ twisted_form_matrix(cert.N) @ U
    want = np.array([sla.eigh(Nbar, U.T @ a @ U, eigvals_only=True).max() for a in A])
    got = grid ** (-2 * rep.k0) / (10 * sel.gamma_grid)
    assert want.min() > q.tol  # no grid point takes the vanishing placeholder
    assert (np.abs(got - want) <= 1e-12 * want).all(), name


def test_build_one_polar_split_per_grid_point(monkeypatch):
    # the grid is one stacked call: count the times reaching the polar core
    splits = []
    polar = decompose._polar

    def counted(q, t, tol, checks):
        splits.append(np.size(t))
        return polar(q, t, tol, checks)
    monkeypatch.setattr(decompose, "_polar", counted)
    build_decomposition(kolmogorov(), 0.05)
    assert sum(splits) == len(decompose.default_t_grid()) + 1


def count_calls(monkeypatch, module, name):
    """The list that grows by one at each call of module.name, from whichever
    qsemi module makes it."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    for m in list(sys.modules.values()):
        if getattr(m, "__name__", "").startswith("qsemi") and vars(m).get(name) is real:
            monkeypatch.setattr(m, name, counted)
    return calls


def count_stages(monkeypatch):
    return {name: count_calls(monkeypatch, decompose, name)
            for name in ("_polar", "_gammas", "_factors_at")}


def test_verify_runs_each_stage_once(capsys, monkeypatch):
    # t joins select_gamma's stacked passes, whose singular space is the shear
    # image of the one decided: nothing is run a second time at t
    from qsemi import quadform, singular
    calls = {name: count_calls(monkeypatch, module, name)
             for module, name in ((singular, "singular_space"),
                                  (quadform, "_congruence_unchecked"),
                                  (decompose, "_polar"), (decompose, "_factors_at"))}
    assert cli.main(["verify", "--fixture", "kolmogorov"]) == cli.EXIT_OK
    capsys.readouterr()
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)


def fail_unitary_at(monkeypatch, t_bad):
    """Make the unitary split fail the entry at time t_bad, alone or stacked."""
    unitary = decompose._unitary

    def failing(S, t, tol, checks):
        checks(np.asarray(t) == t_bad, BranchCut,
               lambda i: f"planted failure at t = {np.ravel(t)[i]}", module="decompose",
               operation="unitary_factorization")
        return unitary(S, t, tol, checks)
    monkeypatch.setattr(decompose, "_unitary", failing)


def test_a_failure_only_at_t_raises_what_the_stages_raise_alone_at_t(monkeypatch):
    q, t = kolmogorov(), 0.0123
    rep = singular_space(q)
    cert = graph_condition(rep)
    want = select_gamma(q, rep, cert, t=t)
    fail_unitary_at(monkeypatch, t)
    sel = select_gamma(q, rep, cert, t=t)
    assert sel.t_error is not None and want.t_error is None
    assert (sel.gamma, sel.t0, sel.stop_reason) == (want.gamma, want.t0, want.stop_reason)
    q_sh = sel.factors.q_sheared
    with pytest.raises(QsemiError) as alone:
        decompose._factors_at(q, q_sh, cert, sel.gamma, sel.factors.alpha,
                              decompose._polar(q_sh, t, 1e-9, Checks()),
                              tol=1e-9, checks=Checks())
    with pytest.raises(QsemiError) as built:
        build_decomposition(q, t)
    assert type(built.value) is type(alone.value) is type(sel.t_error) is BranchCut
    assert str(built.value) == str(alone.value) == str(sel.t_error)


def test_a_build_failing_at_t_runs_each_stage_once(monkeypatch):
    fail_unitary_at(monkeypatch, 0.0123)
    calls = count_stages(monkeypatch)
    with pytest.raises(BranchCut, match="planted failure at t = 0.0123"):
        build_decomposition(kolmogorov(), 0.0123)
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("seed, n, k", [(24, 2, 7), (36, 2, 7), (2, 5, 22), (3, 5, 15)])
def test_a_rank_n_form_where_a_t_nears_zero_ends_in_a_report(tmp_path, capsys, seed, n, k):
    # rank-n forms at t ~ 1e-7, where lambda_min(A_t) ~ 1e-17 on the
    # complement of the singular space and rounding decides its sign: one
    # report, the decomposition or GammaCollapsed at a grid point
    t = float(np.logspace(-7, -5, 81)[k])
    q = random_accretive(np.random.default_rng(seed), n, rank=n)
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": n, "Q_re": q.Q.real.tolist(),
                                "Q_im": q.Q.imag.tolist()}))
    grid = {f"{g:.3g}" for g in np.logspace(np.log10(t), -4, 10)}
    for command in ("decompose", "verify"):
        code = cli.main([command, str(path), "--t", repr(t), "--t-grid", f"{t!r},1e-4,10"])
        rep = json.loads(capsys.readouterr().out)
        assert code in (cli.EXIT_OK, cli.EXIT_MATH)
        if code == cli.EXIT_MATH:
            assert rep["kind"] == "GammaCollapsed"
            assert re.search(r"at t = (\S+) ", rep["error"]).group(1) in grid


def test_a_point_whose_a_t_is_singular_to_rounding_is_gamma_collapsed(tmp_path, capsys):
    # lambda_min(A_t) = 5e-18 > 0 on the complement of S, but the LU that
    # solves for mu_t meets an exact zero pivot: that grid point fails as
    # GammaCollapsed, where the stacked solve would raise LinAlgError
    q = random_accretive(np.random.default_rng(196), 2, rank=2)
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": 2, "Q_re": q.Q.real.tolist(),
                                "Q_im": q.Q.imag.tolist()}))
    code = cli.main(["decompose", str(path), "--t", "1e-6",
                     "--t-grid", "2.1544346900318822e-07,1e-4,10"])
    rep = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_MATH
    assert re.fullmatch(r"\[decompose.select_gamma\] A_t singular to rounding on the "
                        r"complement of S at t = 2.15e-07 \(lambda_min = \d\S+\)", rep["error"])


def test_a_time_beyond_t0_is_too_large_before_any_failure_at_t(monkeypatch):
    fail_unitary_at(monkeypatch, 0.2)
    with pytest.raises(TimeTooLarge, match="t0 = 0.1"):
        build_decomposition(kolmogorov(), 0.2, t_grid=np.logspace(-3, -1, 20))


def test_every_log_of_a_build_takes_the_runs_tolerance(monkeypatch):
    from qsemi import matfun
    tols = []
    log = matfun.log_principal

    def spy(Z, X, tol, checks):
        tols.append(tol)
        return log(Z, X, tol, checks)
    for module in (decompose, matfun):
        monkeypatch.setattr(module, "log_principal", spy)
    build_decomposition(QuadraticForm(2, kolmogorov().Q, 1e-7), 0.05)
    assert tols and set(tols) == {1e-7}


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
        for t in (0.01, 0.02, 0.05):
            f = build_decomposition(q, t)
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
        recon = _three_factor_product(uni.D, uni.M, uni.W, t)
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
    k_split = kernel_right_transport(k_diff, Mtrans, t, sla.expm(-t * Mtrans))
    k_full = kernel_from_symbol(mehler_symbol(q_full, t))
    assert abs(k_split.c - k_full.c) < 1e-10 * abs(k_full.c)
    assert np.linalg.norm(k_split.K - k_full.K) < 1e-9


# --- the kernel gate in the t -> 0 regime -----------------------------------

#: a rank-n form on which the kernel residual of verify used to reach 3e-2 at
#: t = 1e-4, from the 1/s entries of the near-delta twisted kernel
REPRODUCER = Path(__file__).resolve().parents[1] / "bench" / "rank_n_kernel_gate_n2.json"
KERNEL_GRID = np.logspace(-3, -2, 10)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_kernel_gate_rank_n_forms_at_small_t(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(4):
        q = random_accretive(rng, n, rank=n)
        for t in (1e-5, 1e-3, 1e-2):
            r = verify_decomposition(build_decomposition(q, t, t_grid=KERNEL_GRID))
            assert r["matrix_residual"] < 1e-9, (n, t)
            assert r["kernel_residual"] <= 1e-10, (n, t)


def test_kernel_gate_with_a_skew_certificate():
    # kolmogorov conjugated by the shear (x, xi) -> (x, xi + Gx) of a skew G:
    # its certificate has N != 0, so the twisted factors carry a phase
    G = np.array([[0.0, 0.5], [-0.5, 0.0]])
    q = conjugate_by_linear(kolmogorov(), shear_transform(G))
    assert np.abs(graph_condition(singular_space(q)).N).max() > 0.1
    for t in (1e-5, 1e-3, 1e-2):
        r = verify_decomposition(build_decomposition(q, t, t_grid=KERNEL_GRID))
        assert r["kernel_residual"] <= 1e-10, t


#: a real twisted form, Re Q = |xi - Nx|^2 and Im Q = 0: its singular space
#: is the graph of the skew N, so the twisted factors carry that N
TWIST = np.array([[0, 0.6, -0.3], [-0.6, 0, 0.4], [0.3, -0.4, 0]])


def reference_residuals(f):
    """verify_decomposition's residuals with each shadow by its own scipy
    expm and the symbol and kernel of p_t and of q each on its own."""
    q, t, s, n, u = f.q, f.t, f.s, f.q.n, f.unitary
    J = standard_J(n)
    twisted = sla.expm(-2j * J @ (s * f.Rs))
    shadow = shear_transform(f.Gsym) @ twisted @ sla.expm(-2j * J @ (t * f.Pt)) @ twisted
    shadow = shadow @ sla.expm(-2j * t * J @ (1j * embed_xixi(-u.D)))
    shadow = shadow @ sla.expm(-2j * t * J @ (-1j * embed_cross(u.M)))
    shadow = shadow @ shear_transform(-t * u.W - f.Gsym)
    matrix_residual = np.linalg.norm(shadow - sla.expm(-2j * t * J @ q.Q))
    k = kernel_from_symbol(mehler_symbol(QuadraticForm(n, f.Pt), t))
    k = kernel_left_phase(twisted_sandwich(k, f.N, 2 * s), f.Gsym)
    k = kernel_right_transport(kernel_right_dispersion(k, -u.D, t), u.M, t,
                               sla.expm(-t * u.M))
    k = kernel_right_phase(k, -t * u.W - f.Gsym)
    target = kernel_from_symbol(mehler_symbol(q, t))
    dc = abs(k.c * f.c_t - target.c) / abs(target.c)
    dK = np.linalg.norm(k.K - target.K) / max(1.0, np.linalg.norm(target.K))
    return {"matrix_residual": matrix_residual, "kernel_residual": max(dc, dK)}


@pytest.mark.parametrize("t", [1e-3, 1e-2])
def test_verify_with_a_nonzero_twist(tmp_path, capsys, t):
    Q = twisted_form_matrix(TWIST)
    path = tmp_path / "twist.json"
    path.write_text(json.dumps({"n": 3, "Q_re": Q.tolist(),
                                "Q_im": np.zeros_like(Q).tolist()}))
    code = cli.main(["verify", str(path), "--t", repr(t)])
    rep = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK, rep
    f = build_decomposition(QuadraticForm(3, Q), t)
    assert np.abs(f.N).max() > 0.1
    for key, value in reference_residuals(f).items():
        assert abs(rep[key] - value) <= 1e-14, key


@pytest.mark.parametrize("t", ["1e-2", "1e-3", "1e-4", "1e-5", "1e-6"])
def test_kernel_gate_reproducer_passes_verify(capsys, t):
    code = cli.main(["verify", str(REPRODUCER), "--t", t])
    rep = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK, rep
    assert rep["kernel_residual"] <= 1e-10

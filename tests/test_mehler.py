"""Symbol and Gaussian-kernel tests.

Closed-form oracles: the heat kernel (4 pi t)^{-n/2} exp(-|x-y|^2/(4t)); the
twisted-diffusion kernel; the harmonic-oscillator symbol computed from the
J-plane closed forms (cosh/tanh); and a brute-force quadrature of the Weyl
oscillatory integral for the degenerate Fokker-Planck symbol.  The Gaussian
prefactor's sqrt(det W) is checked against a 40-digit mpmath eigenvalue
product, and the norms' kernels from the flow exp(-2itJQ) against a 40-digit
mpmath exponential.
"""
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsemi import (
    QuadraticForm,
    block_decompose,
    compose_kernels,
    diagnostics_PVMN,
    kernel_from_symbol,
    mehler_inverse_twisted,
    mehler_symbol,
    singular_space,
    standard_J,
    twisted_form_matrix,
)
from qsemi import matfun, mehler
from qsemi.errors import (
    DegenerateTime,
    DimensionMismatch,
    NonIntegrableSymbol,
    SeriesRegimeViolated,
)
from qsemi.fixtures import (
    fokker_planck,
    harmonic,
    heat,
    kolmogorov,
    shifted_diagonal,
    x_squared,
)
from qsemi.evolve import GaussianState, dispersion_gaussian, norm_sweep, op_norm_edge
from qsemi.matfun import Checks, rounding_allowance
from qsemi.mehler import (
    MehlerSymbol,
    _sqrt_det,
    inverse_twisted,
    kernel_right_dispersion,
    twisted_sandwich,
)

from oracles import mp_disperse, mp_expm, to_complex, twisted_kernel


def graph_fixtures():
    return [heat(1), harmonic(1), kolmogorov(), fokker_planck(), shifted_diagonal()]


def random_accretive_form(rng, n):
    """Q = G G^T + i (S + S^T), scaled to spectral norm 1 (Re Q full rank)."""
    G = rng.standard_normal((2 * n, 2 * n))
    S = rng.standard_normal((2 * n, 2 * n))
    Q = G @ G.T + 1j * (S + S.T)
    return QuadraticForm(n, Q / np.linalg.norm(Q, 2))


def heat_kernel_oracle(n, t):
    """(4 pi t)^{-n/2} exp(-|x-y|^2 / (4t)) in (prefactor, K) storage."""
    I = np.eye(n)
    K = np.block([[I, -I], [-I, I]]) / (2 * t)
    return (4 * np.pi * t) ** (-n / 2), K.astype(complex)


def kernel_close(k, c_ref, K_ref, rtol=1e-12):
    return (abs(k.c - c_ref) <= rtol * abs(c_ref)
            and np.linalg.norm(k.K - K_ref) <= rtol * max(1, np.linalg.norm(K_ref)))


# --- symbols ----------------------------------------------------------------

def test_symbol_heat():
    t = 0.35
    sym = mehler_symbol(heat(1), t)
    assert abs(sym.c - 1.0) < 1e-13
    assert np.allclose(sym.M, t * heat(1).Q, atol=1e-13)


def test_symbol_harmonic_closed_form():
    sym = mehler_symbol(harmonic(1), 1.0)
    assert abs(sym.c - 1 / np.cosh(0.5)) < 1e-12
    assert np.allclose(sym.M, np.tanh(0.5) * np.eye(2), atol=1e-12)


def test_symbol_at_zero_time():
    sym = mehler_symbol(kolmogorov(), 0.0)
    assert sym.c == 1.0
    assert np.allclose(sym.M, 0, atol=1e-15)


def test_symbol_real_part_nonnegative():
    for q in (heat(2), harmonic(1), kolmogorov(), fokker_planck()):
        sym = mehler_symbol(q, 0.2)
        lam = np.linalg.eigvalsh((sym.M.real + sym.M.real.T) / 2).min()
        assert lam > -1e-10


def test_symbol_stack_matches_per_t():
    rng = np.random.default_rng(83)
    ts = np.concatenate([[0.0], np.logspace(-4, 0, 7)])
    forms = graph_fixtures() + [random_accretive_form(rng, n) for n in (2, 5)]
    for q in forms:
        sym = mehler_symbol(q, ts)
        assert sym.c.shape == ts.shape and sym.M.shape == ts.shape + q.Q.shape
        ks = kernel_from_symbol(mehler_symbol(q, ts[1:]))
        for j, t in enumerate(ts):
            one = mehler_symbol(q, float(t))
            assert abs(sym.c[j] - one.c) <= 1e-13 * abs(one.c)
            assert np.abs(sym.M[j] - one.M).max() <= 1e-13 * max(1.0, np.abs(one.M).max())
            if t > 0:
                k = kernel_from_symbol(one)
                assert abs(ks.c[j - 1] - k.c) <= 1e-13 * abs(k.c)
                assert np.abs(ks.K[j - 1] - k.K).max() <= 1e-13 * np.abs(k.K).max()
    assert mehler_symbol(kolmogorov(), ts).c[0] == 1.0


def test_symbol_sweep_passes_each_time_to_expm_once(monkeypatch):
    # exp(itJQ) at every t in one stack; exp(-itJQ) is its J^T E^T J
    entries, expm = [], matfun.expm

    def counted(A):
        entries.append(int(np.prod(np.shape(A)[:-2])))
        return expm(A)
    monkeypatch.setattr(matfun, "expm", counted)
    mehler_symbol(random_accretive_form(np.random.default_rng(2), 5), np.logspace(-3, 0, 40))
    assert entries == [40]


def test_symbol_stack_raises_at_first_conjugate_point():
    # q = i (x^2 + xi^2)/2: JQ has eigenvalues +-1/2, det cos vanishes at t = pi
    q = QuadraticForm(1, 0.5j * np.eye(2))
    ts = np.linspace(0.5, 4.0, 8)
    first = None
    for j, t in enumerate(ts):
        try:
            mehler_symbol(q, float(t))
        except DegenerateTime as exc:
            first = (j, str(exc))
            break
    assert first is not None and ts[first[0]] == 3.5
    with pytest.raises(DegenerateTime) as info:
        mehler_symbol(q, ts)
    assert (info.value.index, str(info.value)) == first


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stacked_symbol_entries_come_out_as_alone(n):
    # F forms at one t, and against a grid of T times (shape (T, F)): each
    # entry's cos, sin, M and kernel are its form's own to the last bit; the
    # root goes through the stacked Pfaffian, whose products may round
    # differently with the length of the stack
    rng = np.random.default_rng(500 + n)
    forms = [random_accretive_form(rng, n) for _ in range(3)]
    few = 8 * np.finfo(float).eps
    Q = np.stack([q.Q for q in forms])
    for t, alone in ((0.3, 0.3), (np.logspace(-3, 0, 7)[:, None], np.logspace(-3, 0, 7))):
        C, S, root = matfun.cos_sin_sqrt_det(Q, t)
        sym = mehler.stacked_symbol(Q, t)
        k = kernel_from_symbol(sym)
        assert sym.M.shape == np.broadcast_shapes(np.shape(t), (3,)) + Q.shape[1:]
        for j, q in enumerate(forms):
            C1, S1, root1 = matfun.cos_sin_sqrt_det(q.Q, alone)
            one = mehler_symbol(q, alone)
            k1 = kernel_from_symbol(one)
            for stacked, own in ((C, C1), (S, S1), (sym.M, one.M), (k.K, k1.K)):
                assert np.array_equal(stacked[..., j, :, :], own)
            for stacked, own in ((root, root1), (sym.c, one.c)):
                assert (np.abs(stacked[..., j] - own) <= few * np.abs(own)).all()


def test_stacked_symbol_names_the_failing_entry():
    # q = i (x^2 + xi^2)/2 meets a conjugate point at t = pi; next to the heat
    # form its failure is entry 1 of the stack, with the message it has alone
    q = QuadraticForm(1, 0.5j * np.eye(2))
    with pytest.raises(DegenerateTime) as alone:
        mehler_symbol(q, 3.5)
    with pytest.raises(DegenerateTime) as stacked:
        mehler.stacked_symbol(np.stack([heat(1).Q, q.Q]), 3.5)
    assert (stacked.value.index, str(stacked.value)) == (1, str(alone.value))


def test_symbol_block_roundtrip():
    sym = mehler_symbol(kolmogorov(), 0.15)
    bf = block_decompose(sym.M)
    assert np.allclose(np.block([[bf.R, bf.L.T], [bf.L, bf.B]]) / 2, sym.M, atol=1e-14)


# --- kernels ----------------------------------------------------------------

def test_kernel_heat_closed_form():
    for n, t in ((1, 0.2), (2, 0.07)):
        k = kernel_from_symbol(mehler_symbol(heat(n), t))
        c_ref, K_ref = heat_kernel_oracle(n, t)
        assert kernel_close(k, c_ref, K_ref)


def test_kernel_twisted_cross_implementation():
    rng = np.random.default_rng(59)
    a = rng.standard_normal()
    N = np.array([[0.0, a], [-a, 0.0]])
    eps = 0.4
    sym = MehlerSymbol(2, 1.0 + 0j, (eps / 2) * twisted_form_matrix(N), 0.0)
    k1 = kernel_from_symbol(sym)
    k2 = twisted_kernel(N, eps)
    assert kernel_close(k1, k2.c, k2.K)


def test_kernel_rejects_x_squared():
    with pytest.raises(NonIntegrableSymbol):
        kernel_from_symbol(mehler_symbol(x_squared(), 0.1))


def fokker_planck_oracle(xs, u, ylim=12.0, xilim=14.0, pts=1501):
    """Brute-force tensor quadrature of the Weyl oscillatory integral
    (2 pi)^{-1} iint exp(i(x-y)xi) exp(-m((x+y)/2, xi)) u(y) dy dxi
    for m(x, xi) = xi^2/2 - 2 i x xi, xi integral innermost."""
    ys = np.linspace(-ylim, ylim, pts)
    xis = np.linspace(-xilim, xilim, pts)
    uy = u(ys)
    out = []
    for x in xs:
        w = (x + ys) / 2
        exponent = (np.multiply.outer(1j * (x - ys), xis)
                    - 0.5 * xis ** 2 + 2j * np.multiply.outer(w, xis))
        inner = np.trapezoid(np.exp(exponent), xis, axis=1)
        out.append(np.trapezoid(inner * uy, ys) / (2 * np.pi))
    return np.array(out)


def test_kernel_fokker_planck_degenerate():
    """The degenerate output is (2 pi)^{-1/2} e^{-2x^2} * integral(u).

    Open-question record: the synthesized kernel and the independent
    quadrature oracle agree on the constant e^{-2 x^2}; the alternative
    normalization e^{-x^2/2} is excluded at the 1e-8 level.
    """
    m = np.array([[0.0, -1j], [-1j, 0.5]], dtype=complex)
    k = kernel_from_symbol(MehlerSymbol(1, 1.0 + 0j, m, 0.0))
    # kernel must be independent of y with x-profile e^{-2x^2}
    K_ref = np.array([[4.0, 0.0], [0.0, 0.0]], dtype=complex)
    assert np.allclose(k.K, K_ref, atol=1e-12)
    assert abs(k.c - (2 * np.pi) ** -0.5) < 1e-13

    xs = np.array([-1.5, -0.4, 0.0, 0.7, 2.0])
    vals = fokker_planck_oracle(xs, lambda y: np.exp(-y ** 2 / 2))
    mass = np.sqrt(2 * np.pi)  # integral of the test input
    expected = (2 * np.pi) ** -0.5 * np.exp(-2 * xs ** 2) * mass
    assert np.abs(vals - expected).max() < 1e-8
    rejected = (2 * np.pi) ** -0.5 * np.exp(-xs ** 2 / 2) * mass
    assert np.abs(vals - rejected).max() > 1e-2
    print("\nOPEN-QUESTION RESOLUTION: quadrature oracle reproduces "
          "(2 pi)^{-1/2} e^{-2x^2} * integral(u) for the degenerate symbol")


def test_twisted_zero_skew_is_gaussian_convolution():
    eps = 0.4
    k = twisted_kernel(np.zeros((1, 1)), eps)
    c_ref, K_ref = heat_kernel_oracle(1, eps / 2)
    assert kernel_close(k, c_ref, K_ref)


def test_twisted_modulus_phase_only():
    eps = 0.5
    N = np.array([[0.0, 1.0], [-1.0, 0.0]])
    k = twisted_kernel(N, eps)
    k0 = twisted_kernel(np.zeros((2, 2)), eps)
    rng = np.random.default_rng(61)
    for _ in range(20):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        assert abs(abs(k(x, y)) - abs(k0(x, y))) < 1e-13


# --- diagnostics ------------------------------------------------------------

def test_diagnostics_heat():
    t = 0.3
    d = diagnostics_PVMN(mehler_symbol(heat(1), t))
    assert np.allclose(d.P, np.eye(1) / (2 * t), atol=1e-12)
    assert np.allclose(d.V, 0, atol=1e-12)
    assert np.allclose(d.Mleft, np.eye(1), atol=1e-12)
    assert np.allclose(d.Nright, np.eye(1), atol=1e-12)


def test_diagnostics_harmonic():
    d = diagnostics_PVMN(mehler_symbol(harmonic(1), 1.0))
    beta = 2 * np.tanh(0.5)
    assert np.allclose(d.P, np.eye(1) / beta, atol=1e-12)
    assert np.allclose(d.V, beta * np.eye(1), atol=1e-12)
    assert np.linalg.eigvalsh(d.V).min() > 0


def test_diagnostics_kernel_V_dimension_matches_singular_space():
    for q, t in ((heat(1), 0.2), (heat(2), 0.2), (harmonic(1), 0.5),
                 (kolmogorov(), 0.1), (fokker_planck(), 0.3)):
        d = diagnostics_PVMN(mehler_symbol(q, t))
        rep = singular_space(q)
        sv = np.linalg.svd(d.V, compute_uv=False)
        rank = int((sv > 1e-8 * max(1.0, sv.max())).sum())
        assert q.n - rank == rep.dim, (q, t)


def test_diagnostics_real_part_normal_form():
    # Re K(x, y) = v((x+y)/2) + p(Mleft x - Nright y) as quadratic forms
    for q, t in ((heat(2), 0.2), (harmonic(1), 0.7), (kolmogorov(), 0.1),
                 (fokker_planck(), 0.4)):
        sym = mehler_symbol(q, t)
        k = kernel_from_symbol(sym)
        d = diagnostics_PVMN(sym)
        n = q.n
        I = np.eye(n)
        E_mid = np.hstack([I, I]) / 2
        E_warp = np.hstack([d.Mleft, -d.Nright])
        recon = E_mid.T @ d.V @ E_mid + E_warp.T @ d.P @ E_warp
        assert np.allclose(recon, k.K.real, atol=1e-10), (q, t)


# --- composition ------------------------------------------------------------

def test_compose_heat_semigroup():
    t1, t2 = 0.12, 0.25
    k1 = kernel_from_symbol(mehler_symbol(heat(1), t1))
    k2 = kernel_from_symbol(mehler_symbol(heat(1), t2))
    k12 = compose_kernels(k1, k2)
    c_ref, K_ref = heat_kernel_oracle(1, t1 + t2)
    assert kernel_close(k12, c_ref, K_ref, rtol=1e-11)


def test_compose_integrates_the_symmetric_part():
    # exp(-z.Kz/2) sees only sym K: K = diag(I, [[1, 3i], [-3i, 1]]) is the
    # identity kernel's function, so composing the two gives c = pi, and the
    # kernel of composing the identity kernel with itself
    K = np.eye(4, dtype=complex)
    K[2, 3], K[3, 2] = 3j, -3j
    ident = mehler.GaussianKernel(2, 1.0, np.eye(4, dtype=complex))
    k, ref = compose_kernels(mehler.GaussianKernel(2, 1.0, K), ident), compose_kernels(ident, ident)
    assert abs(k.c - np.pi) <= 1e-15 * np.pi and ref.c == k.c
    assert np.array_equal(k.K, ref.K)


def test_compose_near_delta():
    k = kernel_from_symbol(mehler_symbol(harmonic(1), 0.4))
    delta = kernel_from_symbol(mehler_symbol(heat(1), 1e-6))
    k_eps = compose_kernels(k, delta)
    assert abs(k_eps.c - k.c) < 1e-4 * abs(k.c)
    assert np.linalg.norm(k_eps.K - k.K) < 1e-4 * np.linalg.norm(k.K)


def test_compose_harmonic_semigroup_prefactor():
    t1, t2 = 0.3, 0.5
    k1 = kernel_from_symbol(mehler_symbol(harmonic(1), t1))
    k2 = kernel_from_symbol(mehler_symbol(harmonic(1), t2))
    k12 = compose_kernels(k1, k2)
    ktot = kernel_from_symbol(mehler_symbol(harmonic(1), t1 + t2))
    # closed form: prefactor recombines to (2 pi sinh(t1+t2))^{-1/2}
    assert abs(ktot.c - (2 * np.pi * np.sinh(t1 + t2)) ** -0.5) < 1e-12
    assert kernel_close(k12, ktot.c, ktot.K, rtol=1e-10)


def test_compose_kolmogorov_semigroup():
    t1, t2 = 0.04, 0.03
    k1 = kernel_from_symbol(mehler_symbol(kolmogorov(), t1))
    k2 = kernel_from_symbol(mehler_symbol(kolmogorov(), t2))
    k12 = compose_kernels(k1, k2)
    ktot = kernel_from_symbol(mehler_symbol(kolmogorov(), t1 + t2))
    assert kernel_close(k12, ktot.c, ktot.K, rtol=1e-9)


def test_twisted_sandwich_matches_composition_with_the_twisted_kernel():
    # at moderate eps the 1/eps entries of twisted_kernel cancel harmlessly in
    # compose_kernels, which checks the covariance form's signs and phases
    N = np.array([[0.0, 0.8], [-0.8, 0.0]])
    for q, t in ((kolmogorov(), 0.1), (harmonic(2), 0.3), (heat(2), 0.05)):
        k = kernel_from_symbol(mehler_symbol(q, t))
        for eps in (0.05, 0.4):
            tw = twisted_kernel(N, eps)
            ref = compose_kernels(compose_kernels(tw, k), tw)
            assert kernel_close(twisted_sandwich(k, N, eps), ref.c, ref.K, rtol=1e-12)


def test_twisted_sandwich_stays_accurate_as_eps_vanishes():
    # TW -> identity, so the sandwich tends to k; its change is of order
    # eps |K| down to rounding, with no 1/eps entry to cancel
    k = kernel_from_symbol(mehler_symbol(kolmogorov(), 1e-3))
    N = np.array([[0.0, 0.8], [-0.8, 0.0]])
    for eps in (1e-14, 1e-18, 1e-22, 1e-26):
        rel = eps * np.linalg.norm(k.K) + 1e-15
        kt = twisted_sandwich(k, N, eps)
        assert abs(kt.c - k.c) <= 2 * rel * abs(k.c)
        assert np.linalg.norm(kt.K - k.K) <= 2 * rel * np.linalg.norm(k.K)


# --- twisted inversion --------------------------------------------------------

def test_inverse_twisted_zero_s():
    N = np.array([[0.0, 0.7], [-0.7, 0.0]])
    Rs, pf = mehler_inverse_twisted(N, 0.0)
    assert np.allclose(Rs, twisted_form_matrix(N), atol=1e-15)
    assert pf == 1.0


def test_inverse_twisted_zero_skew():
    Rs, pf = mehler_inverse_twisted(np.zeros((2, 2)), 0.3)
    assert np.allclose(Rs, twisted_form_matrix(np.zeros((2, 2))), atol=1e-14)
    assert abs(pf - 1.0) < 1e-12


def test_inverse_twisted_sandwich_random():
    # NN <= R_s <= 2NN, which the build takes from the closed form unchecked:
    # both differences have rank at most n in 2n dimensions, so their least
    # eigenvalue is 0 up to rounding relative to |NN|_2, at any twist
    rng = np.random.default_rng(67)
    for n in (1, 2, 3, 5):
        for size in (1.0, 1e3, 1e5):
            A = rng.standard_normal((n, n))
            N = A - A.T  # 0 at n = 1
            N *= size / max(np.linalg.norm(N, 2), 1e-300)
            NN = twisted_form_matrix(N)
            nrm = np.linalg.norm(NN, 2)
            allowance = rounding_allowance(2 * n) * nrm
            for s in np.array([0.1, 0.5, 0.99]) * 2 ** -0.5 / nrm:
                Rs, pf = mehler_inverse_twisted(N, s)
                assert np.linalg.eigvalsh(Rs - NN).min() >= -allowance
                assert np.linalg.eigvalsh(2 * NN - Rs).min() >= -allowance
                assert pf >= 1.0 - 1e-12


def test_inverse_twisted_regime_guard():
    N = np.array([[0.0, 1.0], [-1.0, 0.0]])
    NN = twisted_form_matrix(N)
    s_bad = 1.01 * 2 ** -0.5 / np.linalg.norm(NN, 2)
    with pytest.raises(SeriesRegimeViolated):
        mehler_inverse_twisted(N, s_bad)


def test_inverse_twisted_rejects_n_that_is_not_real_skew():
    good = np.array([[0.0, 0.5], [-0.5, 0.0]])
    for N in (np.array([[0.0, 0.5], [0.5, 0.0]]), good + 1e-9 * np.eye(2),
              np.zeros((2, 3)), np.zeros(2), good * 1j,
              np.array([[0.0, np.nan], [np.nan, 0.0]])):
        with pytest.raises(DimensionMismatch):
            mehler_inverse_twisted(N, 0.1)
    # skew within 1e-12 |N| passes
    Rs, _ = mehler_inverse_twisted(good + 1e-14 * np.eye(2), 0.1)
    assert np.isfinite(Rs).all()


def test_inverse_twisted_refuses_a_symmetric_n_near_float_range():
    # relative_distance(N, -N^T) is taken on N / 2^e: unscaled, N + N^T
    # overflowed, and the rule read inf <= inf
    with pytest.raises(DimensionMismatch, match="real skew-symmetric"):
        mehler_inverse_twisted(np.array([[0.0, 1e300], [1e300, 0.0]]), 1e-310)


def test_inverse_twisted_matches_arctan_formula():
    import scipy.linalg as sla
    from qsemi import standard_J
    rng = np.random.default_rng(71)
    A = rng.standard_normal((2, 2))
    N = A - A.T
    NN = twisted_form_matrix(N)
    s = 0.4 * 2 ** -0.5 / np.linalg.norm(NN, 2)
    Rs, _ = mehler_inverse_twisted(N, s)
    J = standard_J(2)
    # arctan F = log((I + iF)(I - iF)^-1) / 2i, the log of the Cayley
    # transform by scipy's own logm
    F = s * J @ NN
    I = np.eye(4)
    arctan = sla.logm(np.linalg.solve((I - 1j * F).T, (I + 1j * F).T).T) / 2j
    direct = np.linalg.solve(s * J, arctan)
    assert np.allclose(Rs, direct.real, atol=1e-12)
    assert np.abs(direct.imag).max() < 1e-12


def series_inverse_twisted(N, s):
    """R_s = (sJ)^{-1} arctan(s J NN) by the manifestly symmetric series
    sum_k F^kT NN F^k / (2k+1), F = s J NN, summed until the terms vanish."""
    from qsemi import standard_J
    NN = twisted_form_matrix(N)
    F = s * standard_J(len(N)) @ NN
    Rs, term_left = np.zeros_like(NN), np.eye(len(NN))
    for k in range(400):
        term = term_left.T @ NN @ term_left / (2 * k + 1)
        Rs += term
        if np.linalg.norm(term) < 1e-18 * np.linalg.norm(Rs):
            break
        term_left = F @ term_left
    return (Rs + Rs.T) / 2


def test_inverse_twisted_stack_matches_series():
    # the closed form keeps the series' relative accuracy down to s = 1e-12 smax,
    # and one s gives exactly its entry of the stack
    from qsemi import standard_J
    rng = np.random.default_rng(79)
    for n in (1, 2, 5, 10):
        A = rng.standard_normal((n, n))
        N = A - A.T
        NN = twisted_form_matrix(N)
        smax = 2 ** -0.5 / np.linalg.norm(NN, 2)
        s = smax * np.array([0.0, 1e-12, 1e-6, 1e-2, 0.3, 0.9])
        Rs, pf = mehler_inverse_twisted(N, s)
        assert Rs.shape == (6, 2 * n, 2 * n) and pf.shape == (6,)
        _, _, cayley = inverse_twisted(N, s, Checks())
        for j in range(6):
            ref = series_inverse_twisted(N, s[j])
            assert np.linalg.norm(Rs[j] - ref) <= 1e-14 * np.linalg.norm(ref)
            F = s[j] * standard_J(n) @ NN
            pf_ref = np.linalg.det(np.eye(2 * n) + F @ F) ** -0.25
            assert abs(pf[j] - pf_ref) <= 1e-14 * pf_ref
            one = mehler_inverse_twisted(N, s[j])
            assert (one[0] == Rs[j]).all() and one[1] == pf[j]
            assert (inverse_twisted(N, s[j], Checks())[2] == cayley[j]).all()
    with pytest.raises(SeriesRegimeViolated) as exc:
        mehler_inverse_twisted(N, smax * np.array([0.5, 0.7, 1.1]))
    assert exc.value.index == 2


def test_inverse_twisted_mehler_roundtrip():
    # the symbol of exp(-s r_s^w) must be the twisted Gaussian itself
    rng = np.random.default_rng(73)
    A = rng.standard_normal((2, 2))
    N = A - A.T
    NN = twisted_form_matrix(N)
    s = 0.3 * 2 ** -0.5 / np.linalg.norm(NN, 2)
    Rs, pf = mehler_inverse_twisted(N, s)
    sym = mehler_symbol(QuadraticForm(2, Rs.astype(complex)), s)
    assert np.linalg.norm(sym.M - s * NN) < 1e-9
    assert abs(sym.c - 1 / pf) < 1e-9


# --- the root sqrt(det W) of the Gaussian prefactor ----------------------------

def eigenvalue_root(W):
    """The reference branch: the product of the principal roots of the
    eigenvalues of W, all in Re > 0 when Re W is positive-definite."""
    return np.exp(0.5 * np.sum(np.log(np.linalg.eigvals(W)), axis=-1))[()]


def mpmath_root(W):
    """eigenvalue_root at 40 digits."""
    with mpmath.workdps(40):
        M = mpmath.matrix(W.tolist())
        lam = [M[0, 0]] if len(W) == 1 else mpmath.eig(M, left=False, right=False)
        return complex(mpmath.fprod(mpmath.sqrt(x) for x in lam))


def complex_symmetric_block(rng, m, cond, scale):
    """Re W with eigenvalues from 1 down to 1/cond, Im W symmetric of norm scale."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    ReW = (Q * np.logspace(0, -np.log10(cond), m)) @ Q.T
    S = rng.standard_normal((m, m))
    S = S + S.T
    return (ReW + ReW.T) / 2 + 1j * scale * S / np.linalg.norm(S, 2)


def test_sqrt_det_matches_a_40_digit_eigenvalue_product():
    rng = np.random.default_rng(19)
    blocks = [complex_symmetric_block(rng, m, cond, scale)
              for m in (1, 2, 3, 4, 5, 8, 10)
              for cond in ((1.0,) if m == 1 else (1.0, 1e4, 1e8))
              for scale in (1e-2, 1.0, 1e2, 1e4)]
    blocks += [complex_symmetric_block(rng, 20, 1e8, 1e4),
               complex_symmetric_block(rng, 20, 1e4, 1e-2)]
    worst = worst_eig = 0.0
    for W in blocks:
        ref = mpmath_root(W)
        worst = max(worst, abs(_sqrt_det(W) / ref - 1))
        worst_eig = max(worst_eig, abs(eigenvalue_root(W) / ref - 1))
    # both lose what det W's own conditioning costs (1.3e-13 at m = 2, cond 1e8)
    assert worst <= worst_eig and worst < 1e-12, (worst, worst_eig)


def test_sqrt_det_takes_the_branch_where_arg_det_winds():
    # Re W ~ 0.01 I and |Im W| up to 1e3: the eigenvalues' arguments sum
    # beyond pi, so the principal root of det W is minus the branch
    rng = np.random.default_rng(20)
    wound = 0
    for m in (3, 4, 5, 6):
        for k in range(8):
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            signs = rng.choice([-1, 1], m) if k % 2 else rng.choice([-1, 1])
            G = 0.1 * rng.standard_normal((m, m)) / np.sqrt(m)
            W = 0.01 * (np.eye(m) + G @ G.T) + 1j * (Q * signs * rng.uniform(10, 1e3, m)) @ Q.T
            W = (W + W.T) / 2
            ref, root = mpmath_root(W), _sqrt_det(W)
            assert abs(root / ref - 1) < 1e-13, (m, k)
            wound += abs(np.sqrt(np.linalg.det(W)) / ref + 1) < 1e-6
    assert wound >= 12


def test_sqrt_det_of_a_number_is_its_principal_root():
    rng = np.random.default_rng(21)
    w = (np.abs(rng.standard_normal(2000)) * 10.0 ** rng.uniform(-8, 8, 2000)
         + 1j * rng.standard_normal(2000) * 10.0 ** rng.uniform(-8, 8, 2000))
    root = _sqrt_det(w[:, None, None])
    assert np.abs(root / np.sqrt(w) - 1).max() <= 2e-15


def test_sqrt_det_of_a_stack_is_each_entry_alone():
    rng = np.random.default_rng(22)
    for m in (1, 2, 3, 4, 5, 8, 10):
        W = np.stack([complex_symmetric_block(rng, m, cond, scale)
                      for cond in (1.0, 1e4, 1e8) for scale in (1e-2, 1.0, 1e2, 1e4)])
        W = W.reshape(3, 4, m, m)
        root = _sqrt_det(W)
        assert root.shape == (3, 4)
        for i in np.ndindex(3, 4):
            assert _sqrt_det(W[i]) == root[i], (m, i)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       log_cond=st.floats(0, 3), log_scale=st.floats(-2, 4))
def test_sqrt_det_squares_to_det_and_never_jumps_along_the_path(m, seed, log_cond,
                                                                log_scale):
    # the branch by its definition, with no eigenvalues: continuous along
    # Re W + is Im W from the positive root of det Re W at s = 0
    W = complex_symmetric_block(np.random.default_rng(seed), m, 10.0 ** log_cond,
                                10.0 ** log_scale)
    root = _sqrt_det(W)
    det = np.linalg.det(W)
    assert abs(root ** 2 - det) <= 1e-12 * abs(det)
    # s |Im W| / lambda_min(Re W) <= 0.1 at s = 1e-8, then steps of 1.35x
    s = np.r_[0.0, np.logspace(-8, 0, 63)]
    path = _sqrt_det(W.real + 1j * s[:, None, None] * W.imag)
    assert path[-1] == root
    assert path[0].real > 0 and path[0].imag == 0
    assert (np.abs(np.diff(path)) < np.abs(path[1:] + path[:-1])).all()


def test_gaussian_integrals_take_no_eigenvalues(monkeypatch):
    rng = np.random.default_rng(23)
    q = random_accretive_form(rng, 5)
    sym = mehler_symbol(q, np.logspace(-4, -1, 40))  # eigvals(JQ): conjugate points
    k = kernel_from_symbol(mehler_symbol(q, 0.01))
    calls, eigvals = [], np.linalg.eigvals

    def counted(A):
        calls.append(np.shape(A))
        return eigvals(A)
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    kernel_from_symbol(sym)
    compose_kernels(k, k)
    A = rng.standard_normal((5, 5))
    twisted_sandwich(k, A - A.T, 0.1)
    kernel_right_dispersion(k, np.diag(rng.standard_normal(5)), 0.1)
    assert calls == []


def prefactors_both_ways(monkeypatch, run):
    """run() with the leading-minor root, then with eigenvalue_root."""
    ours = run()
    with monkeypatch.context() as patch:
        patch.setattr(mehler, "_sqrt_det", eigenvalue_root)
        return ours, run()


def test_kernel_prefactors_match_the_eigenvalue_root(monkeypatch):
    rng = np.random.default_rng(24)
    forms = graph_fixtures() + [random_accretive_form(rng, n) for n in (1, 2, 5, 10)]
    T = np.logspace(-4, -1, 40)
    for q in forms:
        sym = mehler_symbol(q, T)
        k, ref = prefactors_both_ways(monkeypatch, lambda: kernel_from_symbol(sym))
        assert (np.abs(k.c - ref.c) <= 1e-13 * np.abs(ref.c)).all(), q.n
        assert (k.K == ref.K).all()


def test_interior_norm_sweep_matches_the_eigenvalue_root(monkeypatch):
    q = random_accretive_form(np.random.default_rng(25), 5)
    T = np.logspace(-4, -1, 40)
    norms, ref = prefactors_both_ways(monkeypatch, lambda: norm_sweep(q, T, 2, 4))
    assert (np.abs(norms - ref) <= 1e-13 * np.abs(ref)).all()


# --- the dispersion factor exp(i t D grad.grad) --------------------------------
def random_dispersion(rng, n, tD):
    """(D, t): D real symmetric n x n, t in (0.1, 5), with |tD|_2 = tD."""
    D = rng.standard_normal((n, n))
    t = rng.uniform(0.1, 5)
    return (D + D.T) * tD / (t * np.linalg.norm(D + D.T, 2)), t


def random_gaussian(rng, m):
    """(K, b) on m coordinates: K complex symmetric with Re K positive-definite
    (condition up to 1e3), b complex."""
    K = complex_symmetric_block(rng, m, 10 ** rng.uniform(0, 3), 10 ** rng.uniform(-1, 2))
    return K, rng.standard_normal(m) + 1j * rng.standard_normal(m)


def relative_error(a, ref) -> float:
    """Largest entry of |a - ref| relative to ref's largest entry."""
    return float(np.abs(np.asarray(a) - ref).max() / np.abs(ref).max())


def check_against_mp_disperse(K, b, D, t, n, c, K2, b2):
    ref_c, ref_K, ref_b = mp_disperse(K, b, D, t, n)
    assert abs(c / complex(ref_c) - 1) < 1e-11
    assert relative_error(K2, to_complex(ref_K)) < 1e-11
    if b2 is not None:
        assert relative_error(b2, to_complex(ref_b)[:, 0]) < 1e-11


@pytest.mark.parametrize("seed", range(8))
def test_dispersion_matches_a_40_digit_round_trip(seed):
    # a kernel (x and y, b = 0) and a state (y only), and disperse itself on
    # both with b, at n <= 5 and |tD| from 1e-3 to 1e3
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(1, 6))
    D, t = random_dispersion(rng, n, 10 ** rng.uniform(-3, 3))
    k = kernel_from_symbol(mehler_symbol(random_accretive_form(rng, n), rng.uniform(0.01, 1)))
    out = kernel_right_dispersion(k, D, t)
    check_against_mp_disperse(k.K, np.zeros(2 * n), D, t, n, out.c / k.c, out.K, None)
    u = GaussianState(n, 1.0, *random_gaussian(rng, n))
    v = dispersion_gaussian(u, D, t)
    check_against_mp_disperse(u.A, u.b, D, t, n, v.c, v.A, v.b)
    for r in (0, n):
        K, b = random_gaussian(rng, r + n)
        check_against_mp_disperse(K, b, D, t, n, *mehler.disperse(
            K, b, D, t, n, NonIntegrableSymbol, module="m", operation="o", what="w"))


@pytest.mark.parametrize("r", [0, 3])
def test_dispersion_takes_the_branch_where_the_roots_wind(r):
    # K'_yy = (I + 2itD)^-1 with |tD| = 500: its three eigenvalues sit near
    # arg -pi/2, so the principal root of det K'_yy is minus the branch
    rng = np.random.default_rng(310 + r)
    K, b = random_gaussian(rng, r + 3)
    K[r:, r:] = np.eye(3)
    D = 100 * np.eye(3) + np.diag([0.5, -0.5, 0.0])
    c, K2, b2 = mehler.disperse(K, b, D, 5.0, 3, NonIntegrableSymbol, module="m",
                                operation="o", what="w")
    lam = np.linalg.eigvals(K2[r:, r:])
    assert abs(np.sqrt(np.prod(lam)) / np.prod(np.sqrt(lam)) + 1) < 1e-12
    check_against_mp_disperse(K, b, D, 5.0, 3, c, K2, b2)


def test_dispersion_by_zero_is_the_identity_to_the_bit():
    # D = +-0 leaves a kernel or a state as it is, c == 1; an asymmetric D
    # acts as its symmetric part
    rng = np.random.default_rng(320)
    for k in [kernel_from_symbol(mehler_symbol(q, 0.1)) for q in graph_fixtures()]:
        for zero in (0.0, -0.0):
            out = kernel_right_dispersion(k, np.full((k.n, k.n), zero), 0.1)
            assert out.c == k.c and out.K.tobytes() == k.K.tobytes()
        D = rng.standard_normal((k.n, k.n))
        a, s = kernel_right_dispersion(k, D, 0.3), kernel_right_dispersion(k, (D + D.T) / 2, 0.3)
        assert a.c == s.c and np.array_equal(a.K, s.K)
    states = [GaussianState(1, 1.0, np.eye(1), np.zeros(1))]
    states += [GaussianState(n, 1.5 - 0.5j, *random_gaussian(rng, n)) for n in (1, 2, 5)]
    for u in states:
        v = dispersion_gaussian(u, np.zeros((u.n, u.n)), 0.1)
        assert v.c == u.c and v.A.tobytes() == u.A.tobytes() and v.b.tobytes() == u.b.tobytes()
        D = rng.standard_normal((u.n, u.n))
        a, s = dispersion_gaussian(u, D, 0.3), dispersion_gaussian(u, (D + D.T) / 2, 0.3)
        assert a.c == s.c and np.array_equal(a.A, s.A) and np.array_equal(a.b, s.b)


def test_dispersion_is_one_solve_and_one_root(monkeypatch):
    rng = np.random.default_rng(330)
    k = kernel_from_symbol(mehler_symbol(random_accretive_form(rng, 3), 0.1))
    calls = []
    for owner, name in ((np.linalg, "solve"), (mehler, "_sqrt_det"),
                        (mehler, "check_integrable"), (mehler, "gaussian_integral")):
        def counted(*args, _f=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    kernel_right_dispersion(k, np.diag(rng.standard_normal(3)), 0.1)
    assert sorted(calls) == ["_sqrt_det", "check_integrable", "solve"]


# --- kernels from the flow exp(-2itJQ) -----------------------------------------

def random_form_of_rank(rng, n, rank):
    """Q = G G^T + i (S + S^T) with G of shape (2n, rank), scaled to spectral
    norm 1: Re Q has rank `rank`."""
    G = rng.standard_normal((2 * n, rank))
    S = rng.standard_normal((2 * n, 2 * n))
    Q = G @ G.T + 1j * (S + S.T)
    return QuadraticForm(n, Q / np.linalg.norm(Q, 2))


def mpmath_flow_kernel(q, t):
    """The blocks (K_xx, K_xy, K_yx, K_yy) and |c| of the kernel of exp(-t q^w)
    from T = exp(-2itJQ) = [[A, B], [C, D]] at 40 digits, from the double
    inputs as they are: K = i [[-D B^-1, B^-T], [B^-1, -B^-1 A]] and
    |c| = (2 pi)^{-n/2} |det B|^{-1/2}."""
    n = q.n
    with mpmath.workdps(40):
        T = mp_expm(-2j * standard_J(n) @ q.Q, t, 40)
        A, B, D = T[:n, :n], T[:n, n:], T[n:, n:]
        Binv = B ** -1
        blocks = (-1j * D * Binv, 1j * Binv.T, 1j * Binv, -1j * Binv * A)
        c = (2 * mpmath.pi) ** (-mpmath.mpf(n) / 2) / mpmath.sqrt(abs(mpmath.det(B)))
        return [np.array(b.tolist(), dtype=complex) for b in blocks], float(c)


def test_flow_kernel_matches_a_40_digit_flow():
    rng = np.random.default_rng(26)
    ts = np.array([1e-8, 1e-6, 1e-4, 1e-2, 1.0])
    worst, checked = 0.0, 0
    for n in (1, 2, 3, 5):
        for rank in (2 * n, n):
            q = random_form_of_rank(rng, n, rank)
            k = mehler.flow_kernel(q, ts)
            assert k.c.shape == ts.shape and np.isrealobj(k.c)
            for j, t in enumerate(ts):
                blocks, c = mpmath_flow_kernel(q, t)
                K = k.K[j]
                ours = (K[:n, :n], K[:n, n:], K[n:, :n], K[n:, n:])
                for a, b in zip(ours, blocks):
                    worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(b))
                worst = max(worst, abs(k.c[j] / c - 1))
                checked += 1
    assert checked == 40 and worst <= 1e-14, worst


def test_flow_kernel_matches_the_symbol_route():
    # the two routes share no stage after Q: the symbol's tan solve and
    # xi-integral against the flow's blocks
    rng = np.random.default_rng(27)
    forms = graph_fixtures() + [random_form_of_rank(rng, n, r)
                                for n in (1, 2, 5, 10) for r in (n, 2 * n)]
    ts = np.logspace(-4, -1, 40)
    for q in forms:
        k, ref = mehler.flow_kernel(q, ts), kernel_from_symbol(mehler_symbol(q, ts))
        err = np.linalg.norm(k.K - ref.K, axis=(-2, -1)) / np.linalg.norm(ref.K, axis=(-2, -1))
        assert err.max() <= 1e-14 and np.abs(k.c / np.abs(ref.c) - 1).max() <= 1e-13, q.n


def test_flow_kernel_sweep_entry_is_its_single_time_kernel():
    # K and |c| of each entry of a sweep, to the last bit, on the fixtures and
    # seeded random forms, with times past theta_30 of the flow's exponent
    rng = np.random.default_rng(71)
    forms = graph_fixtures() + [random_form_of_rank(rng, n, r)
                                for n in (1, 2, 5, 10) for r in (n, 2 * n)]
    ts = np.logspace(-4, 0.5, 40)
    for q in forms:
        k = mehler.flow_kernel(q, ts)
        for i, t in enumerate(ts):
            alone = mehler.flow_kernel(q, t)
            assert np.array_equal(k.K[i], alone.K) and k.c[i] == alone.c, (q.n, t)


def test_flow_kernel_decisions():
    with pytest.raises(DegenerateTime) as info:
        mehler.flow_kernel(heat(1), np.array([0.1, -1.0]))
    assert info.value.index == 1 and "nonnegative" in str(info.value)
    # x^2 has B = 0 at every t, and t = 0 has B = 0 on every form
    for q, ts, index in ((x_squared(), [0.1, 0.2], 0), (heat(1), [0.1, 0.0], 1)):
        with pytest.raises(NonIntegrableSymbol) as info:
            mehler.flow_kernel(q, np.array(ts))
        assert info.value.index == index
    # a single time gives a single kernel
    k = mehler.flow_kernel(heat(1), 0.25)
    c, K = heat_kernel_oracle(1, 0.25)
    assert kernel_close(k, c, K, rtol=1e-15) and np.ndim(k.c) == 0


def test_flow_kernel_keeps_the_symbol_routes_reach():
    # oscillators of frequencies 1 and 3: B = -i diag(sinh t, sinh 3t), whose
    # condition number e^2t passes 1e12 at t = 13.8, and |g| = |c| =
    # (2 pi)^-1 (sinh t sinh 3t)^{-1/2}; a symplectic rotation of the pair
    # (x -> Gx, xi -> G xi) keeps the norms and mixes the modes in every block
    ts = np.array([1.0, 5.0, 13.8, 20.0])
    exact = 1 / (2 * np.pi * np.sqrt(np.sinh(ts) * np.sinh(3 * ts)))
    diagonal = QuadraticForm(2, np.diag([0.5, 1.5, 0.5, 1.5]).astype(complex))
    G = np.array([[0.8, -0.6], [0.6, 0.8]])
    S = np.kron(np.eye(2), G)
    rotated = QuadraticForm(2, (S.T @ diagonal.Q @ S).astype(complex))
    for q, rtol in ((diagonal, 1e-13), (rotated, 1e-7)):
        for p, qq in ((1, np.inf), (2, np.inf), (1, 2)):
            norms = norm_sweep(q, ts, p, qq)
            ref = op_norm_edge(kernel_from_symbol(mehler_symbol(q, ts)), p, qq)
            assert np.abs(norms / ref - 1).max() <= rtol, (p, qq)
        assert np.abs(norm_sweep(q, ts, 1, np.inf) / exact - 1).max() <= rtol
    # exp(-2itJQ) of harmonic(1) overflows past t = 710, exp(-itJQ) past 1420,
    # where the symbol route's cos(tJQ) does too
    ts = np.array([700.0, 1000.0, 1400.0])
    for p, qq in ((1, np.inf), (2, np.inf)):
        norms = norm_sweep(harmonic(1), ts, p, qq)
        ref = op_norm_edge(kernel_from_symbol(mehler_symbol(harmonic(1), ts)), p, qq)
        assert np.abs(norms / ref - 1).max() <= 1e-12, (p, qq)


@pytest.mark.parametrize("n", [5, 10])
def test_flow_kernel_holds_at_most_four_stacks(n):
    # a stack is T (2n)^2 complex numbers; numpy reports its buffers to
    # tracemalloc, so the traced peak counts every temporary of a sweep
    q = random_form_of_rank(np.random.default_rng(72), n, 2 * n)
    ts = np.logspace(-4, -1, 40)
    stack = ts.size * (2 * n) ** 2 * 16
    for sweep in (lambda: mehler.flow_kernel(q, ts), lambda: norm_sweep(q, ts, 2, np.inf)):
        sweep()  # the first call fills the caches it reads (standard_J)
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * stack, peak / stack

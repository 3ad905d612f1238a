"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
All tolerances are pinned here, not configurable.
"""
import time

import numpy as np
import pytest
import scipy.linalg as sla

from qsemi import (
    GaussianState,
    QuadraticForm,
    apply_kernel_gaussian,
    build_decomposition,
    compose_kernels,
    compute_cpq,
    counterexample_demo,
    derivative_growth_check,
    fit_exponent,
    graph_condition,
    kernel_from_symbol,
    lp_norm,
    mehler_inverse_twisted,
    mehler_symbol,
    miraculous_bound_check,
    op_norm_1_inf,
    singular_space,
    standard_J,
    strang_middle,
    twisted_form_matrix,
    verify_decomposition,
)
from qsemi.errors import NonIntegrableSymbol
from qsemi.evolve import dispersion_gaussian
from qsemi.fixtures import heat, kolmogorov, shifted_diagonal, x_squared
from qsemi.mehler import MehlerSymbol

from oracles import twisted_kernel
from test_mehler import fokker_planck_oracle
from test_singular import iterated_kernel_oracle, oracle_k0, subspace_distance


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_singular_space_fixtures():
    t0 = time.monotonic()
    q1 = shifted_diagonal()
    rep1 = singular_space(q1)
    d1 = subspace_distance(rep1.basis, np.array([[1.0], [1.0]]) / np.sqrt(2))
    ok = d1 < 1e-10 and rep1.k0 == 0

    rep2 = singular_space(heat(2))
    tgt2 = np.vstack([np.eye(2), np.zeros((2, 2))])
    ok &= subspace_distance(rep2.basis, tgt2) < 1e-10 and rep2.k0 == 0

    q3 = kolmogorov()
    rep3 = singular_space(q3)
    basis3, dims3 = iterated_kernel_oracle(q3)
    ok &= (subspace_distance(rep3.basis, basis3) < 1e-10
           and rep3.k0 == oracle_k0(dims3) == 1)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"singular-space fixtures vs hand oracle "
                  f"(diag dist {d1:.1e}; kolmogorov dim {rep3.dim}, "
                  f"k0 {rep3.k0}; {elapsed:.2f} s)")


def test_criterion_02_kolmogorov_splitting_matrix_level():
    # classical flows of the splitting: the full generator eta^2 - i v xi,
    # the anisotropic diffusion with the t/2 and t^3/12 coefficients, and
    # the transport -i v xi, multiplied as 2n x 2n shadows
    J = standard_J(2)
    worst = 0.0
    for t in (0.1, 1.0, 2.0):
        Qfull = np.zeros((4, 4), dtype=complex)
        Qfull[3, 3] = 1.0
        Qfull[1, 2] = Qfull[2, 1] = -0.5j
        Q2 = np.zeros((4, 4), dtype=complex)
        Q2[3, 3] = 1.0
        Q2[2, 2] = t ** 2 / 4 + t ** 2 / 12
        Q2[2, 3] = Q2[3, 2] = -t / 2
        Q1 = np.zeros((4, 4), dtype=complex)
        Q1[1, 2] = Q1[2, 1] = -0.5j
        lhs = sla.expm(-2j * t * J @ Q2) @ sla.expm(-2j * t * J @ Q1)
        rhs = sla.expm(-2j * t * J @ Qfull)
        worst = max(worst, np.linalg.norm(lhs - rhs))
    report(2, worst < 1e-12,
           f"Kolmogorov splitting flows multiply exactly (residual {worst:.2e})")


def test_criterion_03_mehler_semigroup_law():
    t_start = time.monotonic()
    rng = np.random.default_rng(211)

    def rel_err(k12, ktot):
        dc = abs(k12.c - ktot.c) / abs(ktot.c)
        dK = (np.linalg.norm(k12.K - ktot.K)
              / max(1.0, np.linalg.norm(ktot.K)))
        return max(dc, dK)

    worst = 0.0
    cases = [(heat(1), 0.04, 0.05), (QuadraticForm(1, 0.5 * np.eye(2)), 0.04, 0.05),
             (kolmogorov(), 0.04, 0.05)]
    for _ in range(25):
        n = int(rng.integers(1, 3))
        G = rng.standard_normal((2 * n, 2 * n))
        S = rng.standard_normal((2 * n, 2 * n))
        Q = G @ G.T + 0.1 * np.eye(2 * n) + 1j * (S + S.T)
        Q /= np.linalg.norm(Q, 2)
        t1 = rng.uniform(0.01, 0.05)
        t2 = rng.uniform(0.01, 0.05)
        cases.append((QuadraticForm(n, Q), t1, t2))
    for q, t1, t2 in cases:
        k1 = kernel_from_symbol(mehler_symbol(q, t1))
        k2 = kernel_from_symbol(mehler_symbol(q, t2))
        ktot = kernel_from_symbol(mehler_symbol(q, t1 + t2))
        worst = max(worst, rel_err(compose_kernels(k1, k2), ktot))
    elapsed = time.monotonic() - t_start
    ok = worst < 1e-9 and elapsed < 10.0
    report(3, ok, f"semigroup law on {len(cases)} forms "
                  f"(worst rel residual {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_04_strang_positivity():
    rng = np.random.default_rng(223)
    J_cache = {}
    worst_margin = np.inf
    worst_recon = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        J = J_cache.setdefault(n, standard_J(n))
        G = rng.standard_normal((2 * n, 2 * n))
        A = G @ G.T
        A *= 0.03 / np.linalg.norm(A, 2)
        H = rng.standard_normal((2 * n, 2 * n))
        C = H @ H.T
        C /= np.linalg.norm(C, 2)
        Asq = sla.sqrtm(A).real
        B = Asq @ (rng.uniform(0.2, 1.0) * C) @ Asq / 5.0
        P = strang_middle(A, B)
        worst_margin = min(worst_margin, np.linalg.eigvalsh(P - A / 2).min())
        recon = (sla.expm(-2j * J @ B) @ sla.expm(-2j * J @ P)
                 @ sla.expm(-2j * J @ B)) - sla.expm(-2j * J @ A)
        worst_recon = max(worst_recon, np.linalg.norm(recon))
    ok = worst_margin >= -1e-10 and worst_recon < 1e-12
    report(4, ok, f"Strang positivity on 50 pairs (min margin "
                  f"{worst_margin:.2e}, recon {worst_recon:.2e})")


def test_criterion_05_arctan_sandwich():
    rng = np.random.default_rng(227)
    worst = np.inf
    for _ in range(100):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        N = A - A.T
        NN = twisted_form_matrix(N)
        nrm = np.linalg.norm(NN, 2)
        s = rng.uniform(0.0, 0.7) * 2 ** -0.5 / nrm
        Rs, _ = mehler_inverse_twisted(N, s)
        worst = min(worst,
                    np.linalg.eigvalsh(Rs - NN).min(),
                    np.linalg.eigvalsh(2 * NN - Rs).min())
    report(5, worst >= -1e-10,
           f"arctan sandwich on 100 skew matrices (min margin {worst:.2e})")


def test_criterion_06_end_to_end_decomposition():
    t_start = time.monotonic()
    worst_mat = 0.0
    worst_ker = 0.0
    for q in (heat(1), shifted_diagonal(), kolmogorov()):
        for t in (0.01, 0.02, 0.05):
            f = build_decomposition(q, t)
            r = verify_decomposition(f)
            worst_mat = max(worst_mat, r["matrix_residual"])
            worst_ker = max(worst_ker, r["kernel_residual"])
    elapsed = time.monotonic() - t_start
    ok = worst_mat < 1e-9 and worst_ker < 1e-6 and elapsed < 30.0
    report(6, ok, f"decomposition verified on 3 fixtures x 3 times "
                  f"(matrix {worst_mat:.2e}, kernel {worst_ker:.2e}, "
                  f"{elapsed:.1f} s)")


def test_criterion_07_exponent_reproduction():
    ok = True
    details = []
    for n in (1, 2):
        ts = np.logspace(-3, -1, 10)
        norms = [op_norm_1_inf(kernel_from_symbol(mehler_symbol(heat(n), float(t))))
                 for t in ts]
        slope, _ = fit_exponent(ts, norms)
        bound = compute_cpq(1, np.inf, n, 0)
        ok &= abs(slope + n / 2) < 0.01 and abs(bound - n / 2) < 1e-12
        details.append(f"heat n={n}: slope {slope:.4f}")
    ts = np.logspace(-3, -1, 10)
    norms = [op_norm_1_inf(kernel_from_symbol(mehler_symbol(kolmogorov(), float(t))))
             for t in ts]
    slope, _ = fit_exponent(ts, norms)
    bound = compute_cpq(1, np.inf, 2, 1)
    ok &= abs(slope + 2.0) < 0.02 and abs(bound - 3.0) < 1e-12
    ok &= slope >= -bound  # bound respected, not tight
    details.append(f"kolmogorov: slope {slope:.4f} vs bound {bound}")
    report(7, ok, "; ".join(details))


def test_criterion_08_contraction():
    rng = np.random.default_rng(229)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        G = rng.standard_normal((2 * n, 2 * n))
        A = G @ G.T + 0.05 * np.eye(2 * n)
        A /= np.linalg.norm(A, 2)
        q = QuadraticForm(n, A.astype(complex))
        k = kernel_from_symbol(mehler_symbol(q, 1.0))
        Au = rng.uniform(0.3, 3.0) * np.eye(n)
        u = GaussianState(n, 1.0, Au.astype(complex),
                          rng.uniform(-1, 1, n).astype(complex))
        for p in (1, 2, np.inf):
            worst = max(worst, lp_norm(apply_kernel_gaussian(k, u), p)
                        / lp_norm(u, p))
    report(8, worst <= 1 + 1e-6,
           f"L^q contraction on 20 real PSD forms (worst ratio {worst:.9f})")


def test_criterion_09_twisted_vs_dispersion():
    N = np.array([[0.0, 1.0], [-1.0, 0.0]])
    eps = 0.3
    D = np.diag([1.0, 2.0])
    u = GaussianState(2, 1.0, np.eye(2, dtype=complex), np.zeros(2))
    violation = miraculous_bound_check(N, eps, D, u)
    ok = violation <= 1e-6
    detf = float(np.linalg.det(eps ** 2 * np.eye(2) + D @ D))
    ktw = twisted_kernel(N, eps)
    details = [f"pointwise violation {violation:.2e}"]
    for (p, q) in ((1, np.inf), (2, 2), (1, 2)):
        rinv = 1 - (0 if np.isinf(p) else 1 / p) + (0 if np.isinf(q) else 1 / q)
        if rinv <= 0:
            rhs = (2 * np.pi) ** -1 * detf ** -0.25
        else:
            r = 1 / rinv
            rhs = ((2 * np.pi) ** (-1 + 1 / r) * r ** (-1 / r)
                   * eps ** (-1 / r) * detf ** (1 / (2 * r) - 0.25))
        measured = 0.0
        for ls in np.linspace(-1.5, 1.5, 21):
            ug = GaussianState(2, 1.0, 10.0 ** (-2 * ls) * np.eye(2, dtype=complex),
                               np.zeros(2))
            v = apply_kernel_gaussian(ktw, dispersion_gaussian(ug, D, 0.5))
            measured = max(measured, lp_norm(v, q) / lp_norm(ug, p))
        ok &= measured <= rhs * (1 + 1e-9)
        details.append(f"(p,q)=({p},{q}): {measured:.4f} <= {rhs:.4f}")
    report(9, ok, "; ".join(details))


def test_criterion_10_derivative_growth():
    N = np.array([[0.0, 1.0], [-1.0, 0.0]])
    eps = 0.3
    k = twisted_kernel(N, eps)
    u = GaussianState(
        2, 1.0,
        np.eye(2) + 0.7j * np.array([[0.5, 0.2], [0.2, -0.3]]),
        np.array([0.8 + 0.4j, -0.5 + 0.6j]))
    ratios = derivative_growth_check(k, N, u, 6, eps=eps)
    m = np.arange(7)
    slope, intercept = np.polyfit(m, np.log(ratios), 1)
    resid = np.log(ratios) - (slope * m + intercept)
    r2 = 1 - (resid ** 2).sum() / ((np.log(ratios)
                                    - np.log(ratios).mean()) ** 2).sum()
    C = float(max(ratios[j] ** (1 / (1 + j)) for j in m))
    ok = (np.all(np.isfinite(ratios)) and r2 >= 0.95
          and all(ratios[j] <= C ** (1 + j) * (1 + 1e-12) for j in m))
    report(10, ok, f"derivative growth bounded by C^(1+m), C = {C:.3f}, "
                   f"log-linearity R^2 = {r2:.3f}")


def test_criterion_11_reciprocal_demo():
    demo = counterexample_demo(x_squared(), 0.1)
    ok = (demo["jump_preserved"]
          and abs(demo["jump_after"] - demo["jump_before"]) <= 1e-3
          and demo["kernel_error"] == "NonIntegrableSymbol")
    with pytest.raises(NonIntegrableSymbol):
        kernel_from_symbol(mehler_symbol(x_squared(), 0.1))
    report(11, ok, f"jump preserved ({demo['jump_before']:.6f} -> "
                   f"{demo['jump_after']:.6f}), kernel synthesis refused")


def test_criterion_12_fokker_planck_degenerate():
    m = np.array([[0.0, -1j], [-1j, 0.5]], dtype=complex)
    k = kernel_from_symbol(MehlerSymbol(1, 1.0 + 0j, m, 0.0))
    u = GaussianState(1, 1.0, np.eye(1, dtype=complex), np.zeros(1))
    v = apply_kernel_gaussian(k, u)
    xs = np.array([-1.5, -0.4, 0.0, 0.7, 2.0])
    direct = np.array([v(np.array([x])) for x in xs])
    oracle = fokker_planck_oracle(xs, lambda y: np.exp(-y ** 2 / 2))
    err = np.abs(direct - oracle).max()
    # open-question resolution: which Gaussian profile the oracle selects
    mass = np.sqrt(2 * np.pi)
    steep = (2 * np.pi) ** -0.5 * np.exp(-2 * xs ** 2) * mass
    printed = (2 * np.pi) ** -0.5 * np.exp(-xs ** 2 / 2) * mass
    matches_steep = np.abs(oracle - steep).max() < 1e-8
    matches_printed = np.abs(oracle - printed).max() < 1e-8
    ok = err < 1e-8 and matches_steep and not matches_printed
    report(12, ok,
           f"rank-degenerate kernel vs quadrature oracle (err {err:.2e}); "
           f"OPEN QUESTION RESOLVED: oracle selects (2pi)^(-1/2) e^(-2x^2), "
           f"not the e^(-x^2/2) display")

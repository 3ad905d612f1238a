"""Singular space, global index and graph condition tests.

The independent oracle intersects the kernels of Re(Q)(Im F)^l one level at
a time with scipy's SVD (the package stacks all levels into a single SVD), so
the two paths share no code.
"""
import numpy as np
import pytest
from scipy.linalg import expm, svd
from scipy.linalg import null_space as scipy_null_space

from qsemi import (
    QuadraticForm,
    conjugate_by_linear,
    graph_condition,
    hamilton_map,
    shear_transform,
    singular_space,
    standard_J,
)
from qsemi.decompose import polar_factors
from qsemi.errors import InvalidTolerance
from qsemi.fixtures import (
    fokker_planck,
    harmonic,
    heat,
    kolmogorov,
    shifted_diagonal,
    x_squared,
)


def iterated_kernel_oracle(q):
    """Intersect Ker(Re Q (Im F)^l) level by level; returns (basis, dims).

    Every level is judged against one scale, the largest singular value of
    the whole stack: judged against its own, a level that is zero up to
    rounding would keep its noise as rank."""
    n2 = 2 * q.n
    ReQ = q.Q.real
    ImF = hamilton_map(q).imag
    levels = [ReQ @ np.linalg.matrix_power(ImF, level) for level in range(n2)]
    thresh = 1e-10 * np.linalg.norm(np.vstack(levels), 2)
    basis = np.eye(n2)
    dims = []
    for M in levels:
        if basis.shape[1] == 0:
            dims.append(0)
            continue
        _, sv, vh = svd(M @ basis)
        basis = basis @ vh[int((sv > thresh).sum()):].T
        dims.append(basis.shape[1])
    return basis, dims


def conjugated_kolmogorov():
    """kolmogorov conjugated by a symplectic map expm(J H / 2): its zero
    levels are zero only up to rounding (singular values ~1e-17)."""
    H = np.random.default_rng(0).standard_normal((4, 4))
    return conjugate_by_linear(kolmogorov(), expm(standard_J(2) @ (H + H.T) / 4))


def oracle_k0(dims):
    final = dims[-1]
    for k, d in enumerate(dims):
        if d == final:
            return k
    return len(dims) - 1


def subspace_distance(B1, B2):
    def proj(B):
        if B.shape[1] == 0:
            return np.zeros((B.shape[0], B.shape[0]))
        Q, _ = np.linalg.qr(B)
        return Q @ Q.T
    return np.linalg.norm(proj(B1) - proj(B2), 2)


def test_shifted_diagonal_singular_space():
    rep = singular_space(shifted_diagonal())
    target = np.array([[1.0], [1.0]]) / np.sqrt(2)
    assert rep.dim == 1
    assert rep.k0 == 0
    assert subspace_distance(rep.basis, target) < 1e-10


def test_heat_singular_space():
    for n in (1, 2):
        rep = singular_space(heat(n))
        target = np.vstack([np.eye(n), np.zeros((n, n))])
        assert rep.dim == n
        assert rep.k0 == 0
        assert subspace_distance(rep.basis, target) < 1e-12


def test_kolmogorov_singular_space_vs_oracle():
    q = kolmogorov()
    rep = singular_space(q)
    basis, dims = iterated_kernel_oracle(q)
    assert rep.dim == basis.shape[1] == 2
    assert subspace_distance(rep.basis, basis) < 1e-10
    assert rep.k0 == oracle_k0(dims) == 1


def test_harmonic_singular_space_trivial():
    rep = singular_space(harmonic(1))
    assert rep.dim == 0
    assert rep.k0 == 0


def test_fokker_planck_singular_space():
    q = fokker_planck()
    rep = singular_space(q)
    basis, dims = iterated_kernel_oracle(q)
    assert rep.dim == basis.shape[1]
    assert subspace_distance(rep.basis, basis) < 1e-10
    assert rep.k0 == oracle_k0(dims)


def test_all_fixtures_match_oracle():
    for q in (heat(1), heat(2), harmonic(1), kolmogorov(), fokker_planck(),
              shifted_diagonal(), x_squared(), conjugated_kolmogorov()):
        rep = singular_space(q)
        basis, dims = iterated_kernel_oracle(q)
        assert rep.dim == basis.shape[1]
        assert subspace_distance(rep.basis, basis) < 1e-9
        assert rep.k0 == oracle_k0(dims)


def test_graph_diagonal():
    cert = graph_condition(singular_space(shifted_diagonal()))
    assert cert is not None
    assert np.allclose(cert.G, [[1.0]], atol=1e-12)
    assert np.allclose(cert.N, [[0.0]], atol=1e-12)


def test_graph_absent_for_x_squared():
    assert graph_condition(singular_space(x_squared())) is None


def test_graph_trivial_space_gives_zero():
    cert = graph_condition(singular_space(harmonic(1)))
    assert cert is not None
    assert np.allclose(cert.G, 0, atol=1e-15)


def test_graph_kolmogorov_zero():
    cert = graph_condition(singular_space(kolmogorov()))
    assert cert is not None
    assert np.allclose(cert.G, np.zeros((2, 2)), atol=1e-12)


def test_graph_membership_characterization():
    # absent exactly when some (0, xi_0), xi_0 != 0, lies in S
    for q in (heat(1), kolmogorov(), shifted_diagonal(), x_squared()):
        rep = singular_space(q)
        cert = graph_condition(rep)
        n = q.n
        contains_vertical = False
        if rep.dim > 0:
            # (0, xi0) in span(basis) iff projecting out x leaves a vector
            X = rep.basis[:n, :]
            K = scipy_null_space(X, rcond=1e-10)
            contains_vertical = K.shape[1] > 0
        assert (cert is None) == contains_vertical


def test_isotropic_cone_heat():
    q = heat(2)
    rep = singular_space(q)
    assert abs(rep.basis.T @ q.Q.real @ rep.basis).max() < 1e-14


def test_isotropic_cone_empty_basis():
    # the trivial singular space of the harmonic oscillator has no basis
    # column, so every form vanishes on it
    rep = singular_space(harmonic(1))
    assert rep.basis.shape == (2, 0)
    assert abs(rep.basis.T @ np.eye(2) @ rep.basis).max(initial=0.0) == 0.0


def test_isotropic_cone_polar_factor():
    q = shifted_diagonal()
    rep = singular_space(q)
    pol = polar_factors(q, 0.1)
    assert abs(rep.basis.T @ pol.A @ rep.basis).max() < 1e-9


def test_stability_under_perturbation():
    rng = np.random.default_rng(53)
    for q in (heat(1), kolmogorov(), shifted_diagonal()):
        rep = singular_space(q)
        delta = rng.standard_normal(q.Q.shape) + 1j * rng.standard_normal(q.Q.shape)
        delta = (delta + delta.T) / 2
        delta *= 1e-11 / np.linalg.norm(delta)
        try:
            qp = type(q)(q.n, q.Q + delta)
        except Exception:
            # accretivity can fail at the boundary; shift the real part up
            qp = type(q)(q.n, q.Q + delta + 2e-11 * np.eye(2 * q.n))
        repp = singular_space(qp)
        assert repp.dim == rep.dim
        assert repp.k0 == rep.k0


def test_transformation_law_under_shear():
    for q in (shifted_diagonal(), kolmogorov()):
        rep = singular_space(q)
        Gsym = np.eye(q.n)
        L = shear_transform(Gsym)
        qt = conjugate_by_linear(q, L)
        rept = singular_space(qt)
        target = np.linalg.inv(L) @ rep.basis
        assert subspace_distance(rept.basis, target) < 1e-8
        assert rept.k0 == rep.k0


def seeded_forms():
    """The fixtures, their conjugates by random symplectic maps (the same dim
    and k0), and random forms whose Re Q has rank r < 2n: with a random Im Q
    the stack fills up after about 2n / r levels, without one S = Ker Re Q."""
    rng = np.random.default_rng(71)
    forms = [heat(1), heat(2), harmonic(1), kolmogorov(), fokker_planck(),
             shifted_diagonal(), x_squared()]
    for q in list(forms):
        H = rng.standard_normal((2 * q.n, 2 * q.n))
        forms.append(conjugate_by_linear(q, expm(standard_J(q.n) @ (H + H.T) / 4)))
    for n in (1, 2, 3):
        for r in range(1, 2 * n):
            X = rng.standard_normal((2 * n, r))
            S = rng.standard_normal((2 * n, 2 * n))
            for im in (S + S.T, np.zeros((2 * n, 2 * n))):
                forms.append(QuadraticForm(n, X @ X.T + 1j * im))
    return forms


def test_one_rank_decision_gives_dim_basis_gap_and_k0():
    # brute force: the rank of every prefix stack of levels 0..l, each
    # judged against the whole stack's largest singular value
    for q in seeded_forms():
        rep = singular_space(q)
        ImF = hamilton_map(q).imag
        levels = [q.Q.real @ np.linalg.matrix_power(ImF, l) for l in range(2 * q.n)]
        smax = np.linalg.norm(np.vstack(levels), 2)
        thresh = rep.tol * smax if smax >= rep.tol else rep.tol
        dims = [2 * q.n - np.linalg.matrix_rank(np.vstack(levels[:l + 1]), tol=thresh)
                for l in range(2 * q.n)]
        assert rep.dim == dims[-1]
        assert rep.k0 == oracle_k0(dims)
        assert rep.dim == 2 * q.n or rep.sv_kept >= thresh
        assert rep.sv_dropped < thresh
        assert rep.basis.shape == (2 * q.n, rep.dim)
        assert np.abs(rep.basis.T @ rep.basis - np.eye(rep.dim)).max(initial=0.0) < 1e-12
        assert np.abs(np.vstack(levels) @ rep.basis).max(initial=0.0) <= 2 * thresh


def svd_spy(monkeypatch, *, full: bool):
    """The list of (full_matrices, compute_uv) of every np.linalg.svd call;
    with full, every call that computes U asks for the full U."""
    calls, svd = [], np.linalg.svd

    def spy(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((full_matrices, compute_uv))
        return svd(a, full_matrices=full_matrices or full, compute_uv=compute_uv, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def bench_style_forms():
    """The seeded forms, and random n = 5 and 10 forms with Re Q of full
    rank and of rank n."""
    rng = np.random.default_rng(73)
    forms = seeded_forms()
    for n in (5, 10):
        for rank in (2 * n, n):
            X = rng.standard_normal((2 * n, rank))
            S = rng.standard_normal((2 * n, 2 * n))
            forms.append(QuadraticForm(n, X @ X.T + 1j * (S + S.T)))
    return forms


def test_singular_space_asks_for_no_full_u(monkeypatch):
    # the stack is (4n^2) x 2n, and only its singular values and V are read
    calls = svd_spy(monkeypatch, full=False)
    singular_space(bench_style_forms()[-1])
    assert calls and not any(full and uv for full, uv in calls)


def test_thin_and_full_svd_give_the_same_singular_space(monkeypatch):
    forms = bench_style_forms()
    thin = [singular_space(q) for q in forms]
    svd_spy(monkeypatch, full=True)
    for q, rep in zip(forms, thin):
        full = singular_space(q)
        assert (rep.k0, rep.dim) == (full.k0, full.dim)
        assert full.sv_kept == pytest.approx(rep.sv_kept, rel=1e-14, nan_ok=True)
        scale = 1.0 if np.isnan(rep.sv_kept) else rep.sv_kept
        assert abs(full.sv_dropped - rep.sv_dropped) <= 1e-14 * scale
        P, Pfull = rep.basis @ rep.basis.T, full.basis @ full.basis.T
        assert np.abs(P - Pfull).max(initial=0.0) <= 1e-13


def test_report_gap_is_exposed():
    rep = singular_space(kolmogorov())
    assert rep.gap_ratio > 1e6


@pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, 1e300, float("nan")])
def test_tolerance_outside_unit_interval_is_rejected(tol):
    # the rank decisions are relative to the largest singular value
    q = heat(1)
    with pytest.raises(InvalidTolerance):
        singular_space(q, tol=tol)
    with pytest.raises(InvalidTolerance):
        graph_condition(singular_space(q), tol=tol)

"""Singular space, global index and graph condition tests.

The independent oracle intersects the kernels of Re(Q)(Im F)^l one level at
a time with scipy's SVD, each level a matrix power judged against the whole
stack (the package never forms a power: its staircase restricts Im F to the
previous level's kernel), so the two paths share no code.  The exact oracle,
oracles.exact_singular_dims, takes the rank of each prefix stack in rational
arithmetic.
"""
import numpy as np
import pytest
from scipy.linalg import expm, svd
from scipy.linalg import null_space as scipy_null_space

from qsemi import (
    QuadraticForm,
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
from qsemi.matfun import rounding_allowance

from oracles import conjugate_by_linear, exact_singular_dims


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


def shifted_by_1e_11(forms):
    """Each form with Re Q shifted by 1e-11 of its norm: values between
    rounding and the threshold, which give finite gap ratios."""
    return [QuadraticForm(q.n, q.Q + 1e-11 * np.linalg.norm(q.Q.real, 2) * np.eye(2 * q.n))
            for q in forms]


def test_one_rank_decision_gives_dim_basis_gap_and_k0():
    # brute force, level by level: N_{k+1} = {x in N_k : Im F x in N_k}, each
    # level's rank from scipy's full SVD of the explicitly projected level,
    # level 0 judged against |Re Q|_2 and every later level against
    # max(|Re Q|_2, |Im F|_2); the gap is the smallest over the levels
    for q in seeded_forms() + shifted_by_1e_11(seeded_forms()):
        rep = singular_space(q)
        m = 2 * q.n
        ReQ, ImF = q.Q.real, hamilton_map(q).imag
        scale0 = np.linalg.norm(ReQ, 2)
        scale = max(scale0, np.linalg.norm(ImF, 2))
        gaps = []

        def kernel(M, scale):
            _, sv, vh = svd(M)
            rank = int((sv > rep.tol * scale).sum())
            if rank < sv.size and sv[rank] > rounding_allowance(m) * scale:
                gaps.append((sv[rank - 1] if rank else scale) / sv[rank])
            return rank, vh[rank:].T

        bases = [kernel(ReQ, scale0)[1]]
        levels = []
        while bases[-1].shape[1]:
            V = bases[-1]
            levels.append((np.eye(m) - V @ V.T) @ ImF)
            rank, W = kernel(levels[-1] @ V, scale)
            if rank == 0:
                break
            bases.append(V @ W)
        assert rep.dim == bases[-1].shape[1]
        assert rep.k0 == len(bases) - 1
        assert abs(1 / rep.gap_ratio - 1 / min(gaps, default=np.inf)) <= 1e-12
        assert rep.basis.shape == (m, rep.dim)
        assert np.abs(rep.basis.T @ rep.basis - np.eye(rep.dim)).max(initial=0.0) < 1e-12
        assert np.abs(ReQ @ rep.basis).max(initial=0.0) <= 2 * rep.tol * scale0
        for level in levels:
            assert np.abs(level @ rep.basis).max(initial=0.0) <= 2 * rep.tol * scale


@pytest.mark.parametrize("c", [2.0 ** -60, 2.0 ** -40, 2.0 ** -20, 1 / 8, 8, 2.0 ** 20,
                               2.0 ** 40, 2.0 ** 60, 2.0 ** 400])
def test_the_rank_decision_does_not_see_the_scale_of_q(c):
    # S and k0 are those of c q: every level is judged relative to |Re Q|_2
    # and |Im F|_2, with no absolute floor for a small q to fall under
    for q in seeded_forms():
        rep, scaled = singular_space(q), singular_space(QuadraticForm(q.n, c * q.Q))
        assert (scaled.dim, scaled.k0) == (rep.dim, rep.k0)


@pytest.mark.parametrize("c", [1 / 8, 8, 2.0 ** 20])
def test_the_rank_decision_does_not_see_the_scale_of_im_q(c):
    # S and k0 are those of Re Q + i c Im Q for c > 0 (a tiny Im Q, c = 2^-20,
    # is judged as rounding: test_stability_under_perturbation)
    for q in seeded_forms():
        rep = singular_space(q)
        scaled = singular_space(QuadraticForm(q.n, q.Q.real + 1j * c * q.Q.imag))
        assert (scaled.dim, scaled.k0) == (rep.dim, rep.k0)


def dyadic_forms(rng, spread: int, count: int):
    """Forms whose entries are small integers times powers of two, for n in
    {2, 3, 4}: Re Q = L^T L with L of 1 to n rows and Im Q symmetric, both
    of entries in -3..3, each column of L and each entry of Im Q scaled by
    2^e with |e| <= spread.  L^T L is exact in doubles: the terms of an entry
    share their power of two."""
    forms = []
    for _ in range(count):
        n = int(rng.integers(2, 5))
        m = 2 * n
        L = rng.integers(-3, 4, (int(rng.integers(1, n + 1)), m)) * 2.0 ** rng.integers(
            -spread, spread + 1, m)
        M = rng.integers(-3, 4, (m, m)) * 2.0 ** rng.integers(-spread, spread + 1, (m, m))
        forms.append(QuadraticForm(n, L.T @ L + 1j * (np.triu(M) + np.triu(M, 1).T)))
    return forms


@pytest.mark.parametrize("spread", [0, 4, 8])
def test_the_staircase_matches_the_exact_rank_on_dyadic_forms(spread):
    # the exact k0 of these forms reaches 7; a stack of the powers of Im F,
    # judged against its largest singular value, loses the lower levels'
    # rank once the entries spread over 2^+-4
    for q in dyadic_forms(np.random.default_rng(2024 + spread), spread, 80):
        rep = singular_space(q)
        assert (rep.dim, rep.k0) == exact_singular_dims(q)


def test_entries_whose_squares_overflow_are_judged_too():
    # |Q|_F overflows here (the constructor's own norm too, hence errstate),
    # while the SVD of Re Q stays finite: Re Q = 1e200 I, so S = {0}
    with np.errstate(over="ignore", invalid="ignore"):
        q = QuadraticForm(1, 1e200 * np.eye(2) + 1e300j * np.array([[0, 1], [1, 0]]))
    rep = singular_space(q)
    assert (rep.dim, rep.k0) == (0, 0)


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
    # each level is 2n x d, and only its singular values and V are read
    calls = svd_spy(monkeypatch, full=False)
    singular_space(bench_style_forms()[-1])
    assert calls and not any(full and uv for full, uv in calls)


def test_thin_and_full_svd_give_the_same_singular_space(monkeypatch):
    # the bench-style forms have exact gaps (inf), their shifts finite ones
    forms = bench_style_forms()
    forms += shifted_by_1e_11(forms)
    thin = [singular_space(q) for q in forms]
    assert sum(np.isfinite(rep.gap_ratio) for rep in thin) >= 20
    svd_spy(monkeypatch, full=True)
    for q, rep in zip(forms, thin):
        full = singular_space(q)
        assert (rep.k0, rep.dim) == (full.k0, full.dim)
        # the first dropped value over the last kept, to 1e-14
        assert abs(1 / full.gap_ratio - 1 / rep.gap_ratio) <= 1e-14
        P, Pfull = rep.basis @ rep.basis.T, full.basis @ full.basis.T
        assert np.abs(P - Pfull).max(initial=0.0) <= 1e-13


def test_report_gap_is_exposed():
    rep = singular_space(kolmogorov())
    assert rep.gap_ratio > 1e6


@pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, 1e300, float("nan")])
def test_tolerance_outside_unit_interval_is_rejected(tol):
    # the rank decisions are relative to the largest singular value
    with pytest.raises(InvalidTolerance):
        QuadraticForm(1, heat(1).Q, tol)

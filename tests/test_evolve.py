"""Evolution, norm and estimate tests.

Oracles: classical Gaussian convolution algebra (variance addition), grid
quadrature against closed forms, the brute-force Fokker-Planck quadrature
from test_mehler, and the explicit constants in the twisted-vs-dispersion
convolution bound.
"""
import itertools
import math

import mpmath
import numpy as np
import pytest

from qsemi import (
    GaussianState,
    GridFunction,
    QuadraticForm,
    apply_kernel_gaussian,
    apply_kernel_grid,
    compute_cpq,
    counterexample_demo,
    derivative_growth_check,
    fit_exponent,
    kernel_from_symbol,
    lp_norm,
    mehler_symbol,
    miraculous_bound_check,
    op_norm_1_inf,
    op_norm_lower_gaussian,
    sample_state,
    twisted_kernel,
)
from qsemi.errors import (
    DegenerateTime,
    ExponentOrder,
    FixtureHasGraph,
    NonIntegrable,
    NonIntegrableSymbol,
    NonPositiveSample,
)
from qsemi.evolve import (
    _derivative_norm,
    _half_dispersion,
    _twisted_gaussian,
    convolve_gaussian,
    dispersion_gaussian,
    norm_sweep,
    op_norm_edge,
)
from qsemi.fixtures import (
    fokker_planck,
    harmonic,
    heat,
    kolmogorov,
    shifted_diagonal,
    x_squared,
)
from qsemi.mehler import GaussianKernel, MehlerSymbol

from test_mehler import fokker_planck_oracle, graph_fixtures, random_accretive_form


def unit_gaussian(n=1):
    return GaussianState(n, 1.0, np.eye(n, dtype=complex), np.zeros(n))


# --- closed-form evolution ----------------------------------------------------

def test_heat_variance_addition():
    t = 0.3
    sigma2 = 0.7
    k = kernel_from_symbol(mehler_symbol(heat(1), t))
    u = GaussianState(1, 1.0, np.array([[1 / sigma2]], dtype=complex), np.zeros(1))
    v = apply_kernel_gaussian(k, u)
    assert abs(1 / v.A[0, 0] - (sigma2 + 2 * t)) < 1e-12
    # mass is conserved by the heat flow
    assert abs(lp_norm(v, 1) - lp_norm(u, 1)) < 1e-12


def test_near_delta_identity():
    k = kernel_from_symbol(mehler_symbol(heat(1), 1e-8))
    u = unit_gaussian()
    v = apply_kernel_gaussian(k, u)
    assert abs(v.c - u.c) < 1e-5
    assert np.abs(v.A - u.A).max() < 1e-5


@pytest.mark.xfail(strict=True, reason="the kernel's entries reach 6e15 at t = 1e-5 "
                   "and apply_kernel_gaussian's Schur complement cancels them to O(1)")
def test_kolmogorov_conserves_mass_at_small_t():
    # the Kolmogorov semigroup conserves the mass of a positive input:
    # |exp(-|x|^2/2)|_1 = 2 pi on R^2.  Rounding alone decides how far the
    # cancellation goes at any one t, so two times are held
    for t in (1e-5, 3e-5):
        k = kernel_from_symbol(mehler_symbol(kolmogorov(), t))
        v = apply_kernel_gaussian(k, unit_gaussian(2))
        assert abs(lp_norm(v, 1) - 2 * np.pi) <= 1e-8, t


def test_fokker_planck_degenerate_output():
    # rank-degenerate kernel: output proportional to exp(-2x^2) integral(u)
    m = np.array([[0.0, -1j], [-1j, 0.5]], dtype=complex)
    k = kernel_from_symbol(MehlerSymbol(1, 1.0 + 0j, m, 0.0))
    u = unit_gaussian()
    v = apply_kernel_gaussian(k, u)
    xs = np.array([-1.5, -0.4, 0.0, 0.7, 2.0])
    direct = np.array([v(np.array([x])) for x in xs])
    oracle = fokker_planck_oracle(xs, lambda y: np.exp(-y ** 2 / 2))
    assert np.abs(direct - oracle).max() < 1e-8


def test_dispersion_preserves_mass_and_sup_decay():
    u = unit_gaussian(2)
    D = np.diag([1.0, 0.5])
    v = dispersion_gaussian(u, D, 0.4)
    # Schrodinger flow is unitary on L^2
    assert abs(lp_norm(v, 2) - lp_norm(u, 2)) < 1e-12
    assert lp_norm(v, np.inf) < lp_norm(u, np.inf)


# --- grid evolution ------------------------------------------------------------

def test_grid_vs_closed_form_heat_1d():
    t = 0.2
    k = kernel_from_symbol(mehler_symbol(heat(1), t))
    u = unit_gaussian()
    axes = ((-8.0, 8.0, 128),)
    ug = sample_state(u, axes)
    vg = apply_kernel_grid(k, ug)
    v = apply_kernel_gaussian(k, u)
    ref = sample_state(v, axes)
    err = np.abs(vg.samples - ref.samples).max() / np.abs(ref.samples).max()
    assert err < 1e-6


def test_grid_vs_closed_form_twisted_2d():
    N = np.array([[0.0, 1.0], [-1.0, 0.0]])
    k = twisted_kernel(N, 0.5)
    u = unit_gaussian(2)
    axes = ((-8.0, 8.0, 128), (-8.0, 8.0, 128))
    vg = apply_kernel_grid(k, sample_state(u, axes))
    ref = sample_state(apply_kernel_gaussian(k, u), axes)
    err = np.abs(vg.samples - ref.samples).max() / np.abs(ref.samples).max()
    assert err < 1e-6


def test_grid_near_identity_kernel():
    k = kernel_from_symbol(mehler_symbol(heat(1), 2e-4))
    u = unit_gaussian()
    axes = ((-8.0, 8.0, 2049),)
    ug = sample_state(u, axes)
    vg = apply_kernel_grid(k, ug)
    assert np.abs(vg.samples - ug.samples).max() < 1e-3


# --- norms -----------------------------------------------------------------------

def test_lp_norm_gaussian_closed_forms():
    u = unit_gaussian()
    assert abs(lp_norm(u, 2) - np.pi ** 0.25) < 1e-14
    assert abs(lp_norm(u, np.inf) - 1.0) < 1e-15
    assert abs(lp_norm(u, 1) - np.sqrt(2 * np.pi)) < 1e-14


def test_lp_norm_grid_matches_closed_form():
    # centered state: the sup sits exactly on a node, so p = inf is exact too
    u = GaussianState(1, 1.3, np.array([[0.8]], dtype=complex), np.zeros(1))
    g = sample_state(u, ((-12.0, 12.0, 257),))
    for p in (1, 2, np.inf):
        assert abs(lp_norm(g, p) - lp_norm(u, p)) < 1e-6 * lp_norm(u, p)
    # off-center peaks are node-limited at p = inf
    u2 = GaussianState(1, 1.3, np.array([[0.8]], dtype=complex),
                       np.array([0.2], dtype=complex))
    g2 = sample_state(u2, ((-12.0, 12.0, 257),))
    for p in (1, 2):
        assert abs(lp_norm(g2, p) - lp_norm(u2, p)) < 1e-6 * lp_norm(u2, p)
    assert abs(lp_norm(g2, np.inf) - lp_norm(u2, np.inf)) < 1e-3 * lp_norm(u2, np.inf)


def test_op_norm_heat():
    t = 0.37
    k = kernel_from_symbol(mehler_symbol(heat(1), t))
    assert abs(op_norm_1_inf(k) - (4 * np.pi * t) ** -0.5) < 1e-13


def test_op_norm_twisted():
    N = np.array([[0.0, 2.0], [-2.0, 0.0]])
    eps = 0.25
    k = twisted_kernel(N, eps)
    assert abs(op_norm_1_inf(k) - (2 * np.pi * eps) ** -1) < 1e-13


def test_op_norm_lower_bound_heat_2_2():
    # the heat semigroup is an L^2 contraction approached by wide Gaussians
    k = kernel_from_symbol(mehler_symbol(heat(1), 0.1))
    lb = op_norm_lower_gaussian(k, 2, 2)
    assert 0.9 < lb <= 1.0 + 1e-9


# --- stacked t-sweeps ------------------------------------------------------------

def reference_lower_gaussian(k, p, q, log_sigma_range=(-2.0, 2.0), points=41,
                             refine=40):
    """The per-width golden-section search, one GaussianState,
    apply_kernel_gaussian and lp_norm per width: what op_norm_lower_gaussian
    computed before it ran on stacks."""
    def ratio(ls):
        u = GaussianState(k.n, 1.0, np.eye(k.n) * 10.0 ** (-2 * ls), np.zeros(k.n))
        try:
            return lp_norm(apply_kernel_gaussian(k, u), q) / lp_norm(u, p)
        except (NonIntegrable, NonIntegrableSymbol):
            return 0.0

    grid = np.linspace(*log_sigma_range, points)
    vals = [ratio(ls) for ls in grid]
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    phi = (np.sqrt(5) - 1) / 2
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = ratio(c1), ratio(c2)
    for _ in range(refine):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = ratio(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = ratio(c1)
    return max(max(vals), f1, f2)


def reference_edge_norm(k, p, q):
    """The L^p -> L^q norm of one kernel for p = 1 or q = inf: |c| for
    (1, inf), else the L^r norm of |g(0, .)| (q = inf, r = p') or of
    |g(., 0)| (p = 1, r = q), a Gaussian integral over the other variable."""
    n = k.n
    if p == 1 and np.isinf(q):
        return abs(k.c)
    if np.isinf(q):
        r, B = (1.0 if np.isinf(p) else p / (p - 1)), k.K[n:, n:].real
    else:
        r, B = q, k.K[:n, :n].real
    return abs(k.c) * ((2 * np.pi / r) ** (n / 2) / math.sqrt(np.linalg.det(B))) ** (1 / r)


def reference_sweep(q, ts, norm, *args):
    """One Mehler symbol, kernel and norm(kernel, *args) per t."""
    return np.array([norm(kernel_from_symbol(mehler_symbol(q, float(t))), *args)
                     for t in ts])


def assert_same_norms(stacked, ref):
    assert np.array_equal(stacked == 0, ref == 0)
    nz = ref != 0
    assert np.abs(stacked[nz] / ref[nz] - 1).max(initial=0.0) <= 1e-12


def test_norm_sweep_matches_per_t_reference():
    rng = np.random.default_rng(113)
    ts = np.logspace(-4, -1, 5)
    forms = graph_fixtures() + [random_accretive_form(rng, n) for n in (2, 5)]
    for q in forms:
        for p, qq in ((1, np.inf), (2, np.inf), (1, 2)):
            assert_same_norms(norm_sweep(q, ts, p, qq),
                              reference_sweep(q, ts, reference_edge_norm, p, qq))
        # the width search, stacked against one search per t
        k = kernel_from_symbol(mehler_symbol(q, ts))
        for p, qq in ((2, np.inf), (2, 2)):
            assert_same_norms(op_norm_lower_gaussian(k, p, qq),
                              reference_sweep(q, ts, reference_lower_gaussian, p, qq))
    assert_same_norms(norm_sweep(heat(2), ts, 2, 2),
                      reference_sweep(heat(2), ts, reference_lower_gaussian, 2, 2))


def test_lower_gaussian_stack_zeroes_where_per_width_does():
    # Re K_yy < 0 rejects wide inputs; Re A_out < 0 rejects the narrow ones
    Ks = np.array([[[1.0, 0.0], [0.0, -0.5]], [[0.1, 1.0], [1.0, 1.0]],
                   [[0.0, 0.0], [0.0, -50.0]], [[1.0, -1.0], [-1.0, 1.0]]])
    c = np.array([1.0, 2.0, 0.5, 1.0]) + 0j
    k = GaussianKernel(1, c, Ks.astype(complex))
    for p, q in ((1, np.inf), (2, np.inf), (1, 2)):
        ref = np.array([reference_lower_gaussian(GaussianKernel(1, c[j], k.K[j]), p, q)
                        for j in range(len(c))])
        assert ref[2] == 0 and (ref[[0, 1, 3]] > 0).all()
        assert_same_norms(op_norm_lower_gaussian(k, p, q), ref)


def test_norm_sweep_raises_the_per_t_loops_first_failure():
    # q = i (x^2 + xi^2)/2 crosses a conjugate point at t = pi, but no t has
    # a kernel: the loop over t stops at the first t, in the kernel stage
    rotation = QuadraticForm(1, 0.5j * np.eye(2))
    ts = np.linspace(0.5, 4.0, 8)
    with pytest.raises(DegenerateTime):
        mehler_symbol(rotation, ts)
    for p in (1, 2):
        with pytest.raises(NonIntegrableSymbol) as info:
            norm_sweep(rotation, ts, p, np.inf)
        assert info.value.index == 0
    # cos(tJQ) overflows at the last t only
    with pytest.raises(DegenerateTime) as info:
        norm_sweep(harmonic(1), np.array([0.1, 10.0, 1e6]), 2, np.inf)
    assert info.value.index == 2 and "overflows" in str(info.value)


# --- edge norms in closed form ----------------------------------------------------

def test_edge_norm_kolmogorov_2_inf_matches_quadrature():
    # |g(0, y)|^2 in units of its marginal widths, twice its conditional ones:
    # the box [-8, 8]^2 covers 16 conditional widths, where the tail is 1e-14
    for t in (1e-3, 1e-2, 0.1):
        k = kernel_from_symbol(mehler_symbol(kolmogorov(), t))
        K = k.K[2:, 2:]
        sd = np.sqrt(np.diag(np.linalg.inv(K.real)) / 2)
        with mpmath.workdps(20):
            c = mpmath.mpc(complex(k.c))
            a, b, d = (mpmath.mpc(complex(K[0, 0])) * sd[0] ** 2,
                       mpmath.mpc(complex(K[0, 1])) * sd[0] * sd[1],
                       mpmath.mpc(complex(K[1, 1])) * sd[1] ** 2)

            def g2(u, v):
                return abs(c * mpmath.exp(-(a * u * u + 2 * b * u * v + d * v * v) / 2)) ** 2

            mass = mpmath.quad(g2, [-8, 0, 8], [-8, 0, 8], method="gauss-legendre",
                               maxdegree=5) * sd[0] * sd[1]
            ref = float(mpmath.sqrt(mass))
        assert abs(op_norm_edge(k, 2, np.inf) / ref - 1) <= 1e-12


def test_edge_norms_heat_closed_forms():
    ts = np.array([1e-3, 0.37, 2.0])
    k = kernel_from_symbol(mehler_symbol(heat(1), ts))
    for p, q in ((1, 2), (2, np.inf)):
        assert np.abs(op_norm_edge(k, p, q) / (8 * np.pi * ts) ** -0.25 - 1).max() <= 1e-12


def test_edge_norms_1_1_conserved_mass():
    # positive kernels: |T|_{1->1} = sup_y int g(x, y) dx = sup T*1, and the
    # adjoint generator sends 1 to 0 (heat, kolmogorov) or to -1 (fokker-planck)
    ts = np.logspace(-4, -1, 5)
    for q, exact in ((heat(1), np.ones_like(ts)), (kolmogorov(), np.ones_like(ts)),
                     (fokker_planck(), np.exp(-ts))):
        assert np.abs(norm_sweep(q, ts, 1, 1) / exact - 1).max() <= 1e-12


def test_edge_norms_bound_the_width_search():
    rng = np.random.default_rng(7)
    ts = np.logspace(-4, -1, 5)
    random_forms = [random_accretive_form(rng, n) for n in (2, 5)]
    # the (1, 1) search on heat, kolmogorov and fokker-planck peaks at its
    # widest input, whose Schur complement cancels down to rounding: there it
    # overshoots the exact norms (test above) by 1e-9 to 36%
    for forms, pairs in ((graph_fixtures() + random_forms,
                          ((2, np.inf), (1, 2), (np.inf, np.inf))),
                         ([harmonic(1), shifted_diagonal()] + random_forms, ((1, 1),))):
        for q in forms:
            k = kernel_from_symbol(mehler_symbol(q, ts))
            for p, qq in pairs:
                assert (op_norm_edge(k, p, qq)
                        >= (1 - 1e-12) * op_norm_lower_gaussian(k, p, qq)).all()


def test_edge_norm_1_inf_is_the_sup_norm():
    ts = np.logspace(-4, -1, 5)
    for q in graph_fixtures():
        k = kernel_from_symbol(mehler_symbol(q, ts))
        assert np.array_equal(op_norm_edge(k, 1, np.inf), op_norm_1_inf(k))
        assert np.array_equal(norm_sweep(q, ts, 1, np.inf), op_norm_1_inf(k))


def test_edge_norm_rejects_a_block_without_decay():
    # Re K is positive semidefinite throughout; entry 1 has no decay in y,
    # entry 2 none in x, and the (1, inf) norm needs neither
    Ks = np.array([[[1.0, -1.0], [-1.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]],
                   [[0.0, 0.0], [0.0, 1.0]]], dtype=complex)
    k = GaussianKernel(1, np.ones(3, dtype=complex), Ks)
    for (p, q), index in (((2, np.inf), 1), ((np.inf, np.inf), 1), ((1, 2), 2)):
        with pytest.raises(NonIntegrable) as info:
            op_norm_edge(k, p, q)
        assert info.value.index == index
    assert np.array_equal(op_norm_edge(k, 1, np.inf), np.ones(3))
    with pytest.raises(NonIntegrable) as info:  # Re K not positive semidefinite
        op_norm_edge(GaussianKernel(1, np.ones(2, dtype=complex),
                                    np.array([Ks[0], -Ks[0]])), 2, np.inf)
    assert info.value.index == 1
    for p, q in ((2, 2), (0.5, np.inf), (1, 0.5)):
        with pytest.raises(ExponentOrder):
            op_norm_edge(k, p, q)


def test_edge_sweeps_run_no_width_search(monkeypatch):
    from qsemi import evolve
    calls = []
    real = evolve._width_ratios
    monkeypatch.setattr(evolve, "_width_ratios",
                        lambda *a: calls.append(1) or real(*a))
    ts = np.logspace(-3, -1, 4)
    for p, q in ((2, np.inf), (1, 2)):
        norm_sweep(kolmogorov(), ts, p, q)
    assert not calls
    norm_sweep(kolmogorov(), ts, 2, 2)
    assert calls


# --- exponents -------------------------------------------------------------------

def test_compute_cpq_examples():
    assert abs(compute_cpq(1, np.inf, 1, 0) - 0.5) < 1e-15
    assert abs(compute_cpq(2, 2, 1, 3) - 3.0) < 1e-15  # p = q gives n k0
    assert abs(compute_cpq(2, 2, 2, 1) - 2.0) < 1e-15
    assert abs(compute_cpq(1, np.inf, 2, 1) - 3.0) < 1e-15


def test_compute_cpq_continuity_at_r2():
    n, k0 = 2, 1
    # r = 2 at (p, q) = (1, 2)
    below = compute_cpq(1, 2 - 1e-9, n, k0)
    above = compute_cpq(1, 2 + 1e-9, n, k0)
    assert abs(below - above) < 1e-7


def test_compute_cpq_rejects_bad_order():
    with pytest.raises(ExponentOrder):
        compute_cpq(2, 1, 1, 0)


def test_fit_exponent_exact_powers():
    ts = np.logspace(-3, -1, 8)
    slope, r2 = fit_exponent(ts, ts ** -0.5)
    assert abs(slope + 0.5) < 1e-12 and r2 > 1 - 1e-12
    slope, _ = fit_exponent(ts, 3.0 * ts ** -2)
    assert abs(slope + 2.0) < 1e-12


def test_fit_exponent_noisy():
    rng = np.random.default_rng(103)
    ts = np.logspace(-3, -1, 30)
    norms = ts ** -1.5 * np.exp(rng.normal(0, 0.01, ts.size))
    slope, _ = fit_exponent(ts, norms)
    assert abs(slope + 1.5) < 0.05


def test_fit_exponent_rejects_nonpositive():
    with pytest.raises(NonPositiveSample):
        fit_exponent([0.1, 0.2, 0.3], [1.0, -1.0, 1.0])


def test_heat_exponent_is_tight():
    for n in (1, 2):
        ts = np.logspace(-3, -1, 10)
        norms = [op_norm_1_inf(kernel_from_symbol(mehler_symbol(heat(n), float(t))))
                 for t in ts]
        slope, _ = fit_exponent(ts, norms)
        assert abs(slope + n / 2) < 0.01
        assert abs(compute_cpq(1, np.inf, n, 0) - n / 2) < 1e-15


# --- derivative growth --------------------------------------------------------

def derivative_norm_mpmath(u, m, x, dps=30):
    """|d^m u(x)|_F from mpmath.diff, each alpha weighted by its m! / alpha!
    orderings of the partial derivatives."""
    with mpmath.workdps(dps):
        c = mpmath.mpc(complex(u.c))
        A = [[mpmath.mpc(complex(a)) for a in row] for row in u.A]
        b = [mpmath.mpc(complex(v)) for v in u.b]

        def f(*y):
            quad = sum(A[i][j] * y[i] * y[j] for i in range(u.n) for j in range(u.n))
            return c * mpmath.exp(-quad / 2 + sum(bi * yi for bi, yi in zip(b, y)))

        total = mpmath.mpf(0)
        for alpha in itertools.product(range(m + 1), repeat=u.n):
            if sum(alpha) != m:
                continue
            weight = math.factorial(m) // math.prod(math.factorial(a) for a in alpha)
            total += weight * abs(mpmath.diff(f, [mpmath.mpf(v) for v in x], alpha)) ** 2
        return float(mpmath.sqrt(total))


@pytest.mark.parametrize("n", [1, 2])
def test_derivative_norm_matches_mpmath(n):
    rng = np.random.default_rng(131 + n)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u = GaussianState(n, complex(*rng.standard_normal(2)),
                      1.5 * np.eye(n) + 0.3 * (G + G.T),
                      rng.standard_normal(n) + 1j * rng.standard_normal(n))
    X = rng.uniform(-1.5, 1.5, (n, 3))
    for m in range(7):
        got = _derivative_norm(u, m, X)
        for j in range(X.shape[1]):
            want = derivative_norm_mpmath(u, m, X[:, j])
            assert abs(got[j] - want) <= 1e-12 * want, (m, j, got[j], want)


def test_gaussian_state_evaluates_point_arrays():
    u = GaussianState(2, 0.7 - 0.2j, np.array([[1.2, 0.3j], [0.3j, 0.8]]),
                      np.array([0.4, -0.1 + 0.5j]))
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 4), np.linspace(-1, 3, 5),
                                indexing="ij"))
    pointwise = np.array([[u(grid[:, i, j]) for j in range(5)] for i in range(4)])
    assert grid.shape == (2, 4, 5) and u(grid).shape == (4, 5)
    assert np.allclose(u(grid), pointwise, rtol=1e-14, atol=0)
    flat = grid.reshape(2, -1)
    assert np.allclose(u(flat), pointwise.ravel(), rtol=1e-14, atol=0)
    v = GaussianState(1, 1.3, np.array([[0.8]]), np.array([0.2j]))
    assert np.isscalar(v(0.5)) and np.isscalar(v(np.array([0.5])))
    assert abs(v(0.5) - 1.3 * np.exp(-0.8 * 0.25 / 2 + 0.1j)) < 1e-15

def test_derivative_growth_heat_first_order():
    # sup |d(e^{t Delta} u)| <= C t^{-1/2} |u|_inf with C < 1 for a unit Gaussian
    t = 0.25
    k = kernel_from_symbol(mehler_symbol(heat(1), t))
    ratios = derivative_growth_check(k, np.zeros((1, 1)), unit_gaussian(), 1,
                                     eps=t)
    assert ratios[0] <= 1.0 + 1e-12  # contraction at m = 0
    assert ratios[1] < 1.0


def test_derivative_growth_contraction_real_symbol():
    k = kernel_from_symbol(mehler_symbol(heat(2), 0.2))
    ratios = derivative_growth_check(k, np.zeros((2, 2)), unit_gaussian(2), 0)
    assert ratios[0] <= 1.0 + 1e-12


def test_derivative_growth_twisted_log_linear():
    N = np.array([[0.0, 1.0], [-1.0, 0.0]])
    eps = 0.3
    k = twisted_kernel(N, eps)
    u = GaussianState(
        2, 1.0,
        np.eye(2) + 0.7j * np.array([[0.5, 0.2], [0.2, -0.3]]),
        np.array([0.8 + 0.4j, -0.5 + 0.6j]))
    ratios = derivative_growth_check(k, N, u, 6, eps=eps)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
    m = np.arange(7)
    slope, intercept = np.polyfit(m, np.log(ratios), 1)
    resid = np.log(ratios) - (slope * m + intercept)
    r2 = 1 - (resid ** 2).sum() / ((np.log(ratios) - np.log(ratios).mean()) ** 2).sum()
    assert r2 >= 0.95
    C = max(ratios[k] ** (1 / (1 + k)) for k in m)
    assert C < 10
    assert all(ratios[k] <= C ** (1 + k) * (1 + 1e-12) for k in m)


# --- twisted vs dispersion ------------------------------------------------------

N_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def corollary_rhs(n, eps, D, p, q):
    """Exact constant chain from the convolution proof (no hidden slack)."""
    detf = float(np.linalg.det(eps ** 2 * np.eye(n) + D @ D))
    rinv = 1 - (0 if np.isinf(p) else 1 / p) + (0 if np.isinf(q) else 1 / q)
    if rinv <= 0:
        return (2 * np.pi) ** (-n / 2) * detf ** -0.25
    r = 1 / rinv
    return ((2 * np.pi) ** (-n / 2 + n / (2 * r)) * r ** (-n / (2 * r))
            * eps ** (-n / (2 * r)) * detf ** (1 / (2 * r) - 0.25))


def test_miraculous_bound_gaussian_fixture():
    u = unit_gaussian(2)
    D = np.diag([1.0, 2.0])
    assert miraculous_bound_check(N_ROT, 0.3, D, u) <= 1e-6


def test_miraculous_bound_d_zero_grid():
    u = unit_gaussian(2)
    axes = ((-8.0, 8.0, 96), (-8.0, 8.0, 96))
    ug = sample_state(u, axes)
    v = miraculous_bound_check(N_ROT, 0.4, np.zeros((2, 2)), ug)
    assert v <= 1e-8


def test_miraculous_prefactor_scaling():
    # det(eps^2 I + D^2)^{-1/4} for diagonal D, recomputed independently
    eps, D = 0.3, np.diag([1.0, 2.0])
    det_indep = (eps ** 2 + 1.0) * (eps ** 2 + 4.0)
    assert abs(np.linalg.det(eps ** 2 * np.eye(2) + D @ D) - det_indep) < 1e-12
    # the bound must hold for both epsilon scales
    u = unit_gaussian(2)
    for e in (0.15, 0.6):
        assert miraculous_bound_check(N_ROT, e, D, u) <= 1e-6


def twisted_schur_mpmath(v, N, eps, dps=60):
    """A of twisted_kernel(N, eps) applied to v, the Schur complement of its
    1/eps entries taken in dps digits from the same double inputs."""
    n = v.n
    with mpmath.workdps(dps):
        I, e = mpmath.eye(n), mpmath.mpf(eps)
        Kxy = -I / e - 1j * mpmath.matrix(N.tolist())
        Av = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in v.A])
        S = I / e - Kxy * mpmath.inverse(I / e + Av) * Kxy.T
        return np.array([[complex(S[i, j]) for j in range(n)] for i in range(n)])


def test_twist_in_covariance_form_keeps_rounding_accuracy():
    # the twisted factor of miraculous_bound_check's Gaussian path: its
    # output matrix against a 60-digit Schur complement of twisted_kernel,
    # whose double-precision route loses 1.4e-10 relative at eps = 1e-6 and
    # 5.9e-4 at 1e-13
    N = np.array([[0.0, 0.7], [-0.7, 0.0]])
    u = GaussianState(2, 1.0, np.eye(2, dtype=complex), np.array([0.5, -0.3 + 0.2j]))
    v = _half_dispersion(u, np.diag([0.3, -0.2]))
    for eps in (1e-6, 1e-10, 1e-13):
        A, ref = _twisted_gaussian(v, N, eps).A, twisted_schur_mpmath(v, N, eps)
        assert np.linalg.norm(A - ref) <= 1e-12 * np.linalg.norm(ref), eps
    # at moderate eps the kernel route is accurate too, and the two agree
    tw, old = _twisted_gaussian(v, N, 0.3), apply_kernel_gaussian(twisted_kernel(N, 0.3), v)
    for new_part, old_part in ((tw.c, old.c), (tw.A, old.A), (tw.b, old.b)):
        assert np.linalg.norm(new_part - old_part) <= 1e-12 * max(np.linalg.norm(old_part), 1.0)


def test_twisted_dispersion_norm_ratios():
    eps = 0.3
    D = np.diag([1.0, 2.0])
    ktw = twisted_kernel(N_ROT, eps)
    for (p, q) in ((1, np.inf), (2, 2), (1, 2)):
        rhs = corollary_rhs(2, eps, D, p, q)
        measured = 0.0
        for ls in np.linspace(-1.5, 1.5, 21):
            u = GaussianState(2, 1.0, 10.0 ** (-2 * ls) * np.eye(2, dtype=complex),
                              np.zeros(2))
            v = apply_kernel_gaussian(ktw, _half_dispersion(u, D))
            measured = max(measured, lp_norm(v, q) / lp_norm(u, p))
        assert measured <= rhs * (1 + 1e-9), (p, q, measured, rhs)


def test_convolution_helper():
    # Gaussian * Gaussian adds variances
    u = unit_gaussian()
    out = convolve_gaussian(np.array([[0.5]]), u)
    assert abs(1 / out.A[0, 0].real - (1 / 0.5 + 1.0)) < 1e-12


# --- contraction ------------------------------------------------------------------

def test_contraction_random_real_psd_forms():
    rng = np.random.default_rng(107)
    for _ in range(20):
        G = rng.standard_normal((2, 2))
        A = G @ G.T + 0.05 * np.eye(2)
        A /= np.linalg.norm(A, 2)
        q = QuadraticForm(1, A.astype(complex))
        k = kernel_from_symbol(mehler_symbol(q, 1.0))
        u = GaussianState(1, 1.0,
                          np.array([[rng.uniform(0.3, 3.0)]], dtype=complex),
                          np.array([rng.uniform(-1, 1)], dtype=complex))
        for p in (1, 2, np.inf):
            assert lp_norm(apply_kernel_gaussian(k, u), p) <= (1 + 1e-6) * lp_norm(u, p)


# --- reciprocal demo ---------------------------------------------------------------

def test_counterexample_x_squared():
    report = counterexample_demo(x_squared(), 0.1)
    assert report["jump_preserved"]
    assert abs(report["jump_after"] - report["jump_before"]) <= 1e-3
    assert report["kernel_error"] == "NonIntegrableSymbol"


def test_counterexample_refuses_smoothing_fixture():
    with pytest.raises(FixtureHasGraph):
        counterexample_demo(heat(1), 0.1)

"""The Gaussian integrability decision, taken in one place (mehler.not_integrable).

Every site that integrates a Gaussian over a variable (kernel synthesis, the
kernel diagnostics, kernel composition, the twisted factors in covariance
form, the right dispersion action, kernel application to a Gaussian state,
and the lower bound's stacked width search), and every site that asks a
Gaussian block to be integrable (a GaussianState's A, sqrt_det_pd), must
reach the same verdict on the same quadratic block, each raising its own
error type.  All but the diagnostics, GaussianState and sqrt_det_pd
integrate through one primitive, mehler.gaussian_integral.  The blocks below
are diag(1, x) with x = 0 (the graph condition failing exactly), x = 2^-41
(just below the relative threshold 1e-12) and x = 2^-39 (just above it);
both are exact in the sums the sites form.
"""
import numpy as np
import pytest

from qsemi import (
    GaussianState,
    apply_kernel_gaussian,
    compose_kernels,
    diagnostics_PVMN,
    kernel_from_symbol,
)
from qsemi.errors import (
    DimensionMismatch,
    NonIntegrable,
    NonIntegrableComposition,
    NonIntegrableSymbol,
    QsemiError,
)
from qsemi.evolve import _width_ratios
from qsemi.matfun import Checks
from qsemi.mehler import (
    GaussianKernel,
    MehlerSymbol,
    gaussian_integral,
    kernel_right_dispersion,
    not_integrable,
    sqrt_det_pd,
    twisted_sandwich,
)

SINGULAR, BELOW, ABOVE = 0.0, 2.0 ** -41, 2.0 ** -39
I2 = np.eye(2)
Z2 = np.zeros((2, 2))


def block(x):
    return np.diag([1.0, x]).astype(complex)


def symbol(x):
    return MehlerSymbol(2, 1.0, np.block([[I2, Z2], [Z2, block(x)]]) / 2, 0.1)


def kernel(Kxx, Kyy):
    return GaussianKernel(2, 1.0 + 0j, np.block([[Kxx, Z2], [Z2, Kyy]]).astype(complex))


def apply_site(x):
    # K_yy + A = diag(0, x - 1) + I = diag(1, x), exactly for these x
    return apply_kernel_gaussian(kernel(I2, np.diag([0.0, x - 1.0])),
                                 GaussianState(2, 1.0, np.eye(2, dtype=complex), np.zeros(2)))


#: (site, error type, operation) for each site, as a function of the block's x
SITES = {
    "kernel_from_symbol": (lambda x: kernel_from_symbol(symbol(x)),
                           NonIntegrableSymbol, "kernel_from_symbol"),
    "diagnostics_PVMN": (lambda x: diagnostics_PVMN(symbol(x)),
                         NonIntegrableSymbol, "diagnostics_PVMN"),
    "compose_kernels": (lambda x: compose_kernels(kernel(I2, block(x)), kernel(Z2, I2)),
                        NonIntegrableComposition, "compose_kernels"),
    "kernel_right_dispersion": (lambda x: kernel_right_dispersion(kernel(I2, block(x)), I2, 0.1),
                                NonIntegrableSymbol, "kernel_right_dispersion"),
    "apply_kernel_gaussian": (apply_site, NonIntegrable, "apply_kernel_gaussian"),
    # the block I + eps A of the covariance form, at eps = 1: diag(1, x, 1, 1)
    "twisted_sandwich": (lambda x: twisted_sandwich(kernel(np.diag([0.0, x - 1.0]), Z2),
                                                    Z2, 1.0),
                         NonIntegrableComposition, "twisted_sandwich"),
    "GaussianState": (lambda x: GaussianState(2, 1.0, block(x), np.zeros(2)),
                      NonIntegrable, "GaussianState"),
    "sqrt_det_pd": (lambda x: sqrt_det_pd(block(x)), NonIntegrableSymbol, "sqrt_det_pd"),
}


def test_decision_is_relative_to_the_block_norm():
    bad, lam = not_integrable(np.stack([block(SINGULAR), block(BELOW), block(ABOVE),
                                        1e-30 * block(ABOVE)]))
    assert bad.tolist() == [True, True, False, False]
    assert lam[:3].tolist() == [SINGULAR, BELOW, ABOVE]


@pytest.mark.parametrize("name", sorted(SITES))
def test_each_site_rejects_a_singular_block_with_its_own_error(name):
    site, error, operation = SITES[name]
    with pytest.raises(error) as info:
        site(SINGULAR)
    assert info.value.operation == operation
    assert "lambda_min = 0.000e+00" in str(info.value)


@pytest.mark.parametrize("name", sorted(SITES))
def test_sites_agree_at_the_threshold(name):
    site, error, _ = SITES[name]
    with pytest.raises(error):
        site(BELOW)
    site(ABOVE)


def test_width_ratios_agree_at_the_threshold():
    # the width-1 input u = exp(-|x|^2/2) is apply_site's state
    for x, zero in ((SINGULAR, True), (BELOW, True), (ABOVE, False)):
        k = kernel(I2, np.diag([0.0, x - 1.0]))
        assert (_width_ratios(k, 0.0, 1, np.inf) == 0) == zero


def test_width_ratios_zero_exactly_where_apply_raises():
    # random kernels whose real parts are often indefinite, at widths that
    # pass and fail each of the three tests
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        G = rng.standard_normal((40, 2 * n, 2 * n))
        S = rng.standard_normal((40, 2 * n, 2 * n))
        K = (G + G.mT) / 2 + 0.5j * (S + S.mT)
        K[::4, n:, n:] = 0.0  # exactly degenerate y-blocks, rescued by the input
        k = GaussianKernel(n, np.ones(40, complex), K)
        raised_any = passed_any = False
        for ls in (-1.0, -0.25, 0.0, 0.5, 1.5):
            zero = _width_ratios(k, np.full(40, ls), 2, np.inf) == 0
            u = GaussianState(n, 1.0, 10.0 ** (-2 * ls) * np.eye(n, dtype=complex),
                              np.zeros(n))
            for j in range(40):
                try:
                    apply_kernel_gaussian(GaussianKernel(n, 1.0 + 0j, K[j]), u)
                    raised = False
                except QsemiError:
                    raised = True
                assert zero[j] == raised, (n, ls, j)
                raised_any |= raised
                passed_any |= not raised
        assert raised_any and passed_any


def test_sqrt_det_pd_raises_at_the_first_failing_matrix():
    A = np.stack([block(ABOVE), np.diag([1.0, -1.0]).astype(complex),
                  np.array([[2.0, 1j], [1j, 1.0]])])
    with pytest.raises(NonIntegrableSymbol) as info:
        sqrt_det_pd(A)
    assert info.value.index == 1
    assert abs(sqrt_det_pd(A[2]) - np.sqrt(3.0)) < 1e-15


def test_sqrt_det_pd_rejects_an_indefinite_real_part():
    # det = -0.2 + 9 = 8.8 and both eigenvalues have positive real part, yet
    # Re A = diag(2, -0.1) is indefinite: the Gaussian diverges
    with pytest.raises(NonIntegrableSymbol) as info:
        sqrt_det_pd(np.array([[2.0, 3j], [3j, -0.1]]))
    assert "lambda_min = -1.000e-01" in str(info.value)


SITE = {"module": "test", "operation": "site", "what": "W"}


def random_forms(rng, count, d):
    """count complex symmetric d x d matrices with positive-definite real part,
    and linear terms."""
    G = rng.standard_normal((count, d, d))
    S = rng.standard_normal((count, d, d))
    K = G @ G.mT + 0.1 * np.eye(d) + 0.5j * (S + S.mT)
    return K, rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))


def test_gaussian_integral_stacked_matches_one_entry():
    rng = np.random.default_rng(17)
    failing = (2, 5)
    for d, m in ((2, 1), (4, 2), (5, 2), (6, 3), (3, 3)):
        K, b = random_forms(rng, 8, d)
        K[failing, d - m:, d - m:] = 0.0  # no decay in w
        checks = Checks((8,))
        c, S, l = gaussian_integral(K, b, m, NonIntegrable, checks=checks, **SITE)
        assert checks.bad.tolist() == [j in failing for j in range(8)]
        kept = [j for j in range(8) if j not in failing]
        # the failed entries leave the others as they are without them
        c2, S2, l2 = gaussian_integral(K[kept], b[kept], m, NonIntegrable, **SITE)
        for j, (cj, Sj, lj) in zip(kept, zip(c2, S2, l2)):
            c1, S1, l1 = gaussian_integral(K[j], b[j], m, NonIntegrable, **SITE)
            for one, stacked in ((c1, c[j]), (S1, S[j]), (l1, l[j]), (c1, cj), (S1, Sj),
                                 (l1, lj)):
                assert np.linalg.norm(stacked - one) <= 1e-14 * max(np.linalg.norm(one), 1e-300)
        for j in failing:
            with pytest.raises(NonIntegrable) as info:
                gaussian_integral(K[j], b[j], m, NonIntegrable, **SITE)
            assert (info.value.operation, info.value.module) == ("site", "test")
        with pytest.raises(NonIntegrable) as info:
            gaussian_integral(K, b, m, NonIntegrable, **SITE)
        assert info.value.index == failing[0]


def test_gaussian_integral_matches_quadrature():
    # one integrated coordinate: the trapezoid rule on a wide, fine grid is
    # exact to rounding for a Gaussian
    rng = np.random.default_rng(23)
    K, b = random_forms(rng, 3, 3)
    w = np.linspace(-30.0, 30.0, 60001)
    r = np.array([0.3, -0.7])
    for Kj, bj in zip(K, b):
        c, S, l = gaussian_integral(Kj, bj, 1, NonIntegrable, **SITE)
        z = np.concatenate([np.broadcast_to(r[:, None], (2, w.size)), w[None]])
        f = np.exp(-0.5 * np.einsum("ik,ij,jk->k", z, Kj, z) + bj @ z)
        ref = np.trapezoid(f, w)
        assert abs(c * np.exp(-0.5 * r @ S @ r + l @ r) - ref) <= 1e-12 * abs(ref)


def test_sqrt_det_pd_rejects_a_matrix_that_is_not_complex_symmetric():
    # sym Re A = I passes check_integrable, and det A = 1 - 9 = -8; but the
    # integral of exp(-z.Az/2) sees only sym A = I, so no root belongs to A
    A = np.array([[1.0, 3j], [-3j, 1.0]])
    with pytest.raises(DimensionMismatch) as info:
        sqrt_det_pd(A)
    assert info.value.operation == "sqrt_det_pd"
    with pytest.raises(DimensionMismatch) as info:
        sqrt_det_pd(np.stack([I2, I2 + 1e-11 * A.imag, A]))
    assert info.value.index == 1
    assert sqrt_det_pd(I2 + 1e-13 * A.imag) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DimensionMismatch):
        sqrt_det_pd(np.ones((2, 3)))

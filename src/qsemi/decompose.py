"""Multi-factor decomposition of exp(-t q^w) under the graph condition.

Everything is driven by the exact dictionary between evolution operators and
2n x 2n matrices: a product of operators exp(-t p_k^w) (complex forms p_k,
Re p_k >= 0) equals exp(-t p^w) exactly when the corresponding matrices
exp(-2itJP_k) multiply to exp(-2itJP).  All stages below construct matrix
identities; the operator-level claim is inherited through that dictionary and
re-verified at the Gaussian-kernel level by verify_decomposition.

Assembled factorization (left to right as operators):

    exp(-t q^w) = c_t * phase(Gsym) * TW * exp(-t p_t^w) * TW
                  * exp(i t D grad.grad) * (u -> u(e^{tM} .))
                  * phase(t W - Gsym),

where phase(T) multiplies by exp(i Tx.x / 2), TW is the twisted diffusion
(e^{-gamma t^alpha |xi - Nx|^2})^w, and (D, M, W) here are the
operator-convention matrices stored in DecompositionFactors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (
    GammaCollapsed,
    GraphConditionFailed,
    NonIntegrableComposition,
    NotPSDWithinTol,
    NotRealWithinTol,
    QsemiError,
    RadiusExceeded,
    TimeTooLarge,
)
from .matfun import DEFAULT_TOL, mat_log_principal, null_space, spectral_norm
from .mehler import (
    GaussianKernel,
    compose_kernels,
    kernel_from_symbol,
    kernel_left_phase,
    kernel_right_dispersion,
    kernel_right_phase,
    kernel_right_transport,
    mehler_inverse_twisted,
    mehler_symbol,
    twisted_form_matrix,
    twisted_kernel,
)
from .quadform import (
    QuadraticForm,
    conjugate_by_linear,
    embed_cross,
    embed_xixi,
    embed_xx,
    shear_transform,
    standard_J,
)
from .singular import (
    GraphCertificate,
    SingularSpaceReport,
    graph_condition,
    singular_space,
)

_MOD = "decompose"

#: convergence radius of the middle-term logarithm (operator norm bound)
STRANG_RADIUS = np.log(2) / 6


@dataclass
class PolarFactors:
    """Real forms a_t, b_t with exp(-2itJA) exp(2tJB) = exp(-2itJQ)."""
    t: float
    A: np.ndarray
    B: np.ndarray
    recon_residual: float


@dataclass
class UnitaryFactors:
    """Solution (D, M, W) of the three-factor splitting of exp(2tJB):

        exp(2tJB) = exp(-2tJ [[0,0],[0,D]]) exp(-tJ [[0,M^T],[M,0]])
                    exp(tJ [[W,0],[0,0]]).

    residual is the Frobenius distance between that product and exp(2tJB).
    iterations is always 0, as the split is read off in closed form; the
    field is kept so that callers reading the iteration count keep working.
    """
    D: np.ndarray
    M: np.ndarray
    W: np.ndarray
    residual: float
    iterations: int


@dataclass
class GammaSelection:
    gamma: float
    t0: float
    t_grid: np.ndarray
    gamma_grid: np.ndarray
    stop_reason: str | None = None   # "<error type>: <message>" that ended t0


@dataclass
class DecompositionFactors:
    """Everything needed to evaluate and verify the factorization at time t."""
    q: QuadraticForm
    t: float
    G: np.ndarray
    N: np.ndarray
    Gsym: np.ndarray
    gamma: float
    alpha: int
    c_t: float
    Pt: np.ndarray                   # matrix of p_t (the Strang middle / t)
    unitary: UnitaryFactors          # matrix-splitting convention
    Rs: np.ndarray
    prefactor: float
    s: float
    t0: float
    polar: PolarFactors = field(repr=False, default=None)
    q_sheared: QuadraticForm = field(repr=False, default=None)

    # operator-convention factor matrices (see module docstring)
    @property
    def D_op(self) -> np.ndarray:
        return -self.unitary.D

    @property
    def M_op(self) -> np.ndarray:
        return self.unitary.M

    @property
    def W_op(self) -> np.ndarray:
        return -self.unitary.W


def polar_factors(q: QuadraticForm, t: float, *, tol: float = DEFAULT_TOL) -> PolarFactors:
    """Split exp(-t q^w) into self-adjoint and unitary matrix shadows.

    A comes from exp(-4itJA) = exp(-2itJQ) exp(-2itJ conj(Q)); B from
    exp(2tJB) = exp(2itJA) exp(-2itJQ).  Both logs must stay principal
    (BranchCut otherwise); imaginary parts are checked then truncated.
    """
    if t == 0:
        return PolarFactors(0.0, q.Q.real.copy(), q.Q.imag.copy(), 0.0)
    J = standard_J(q.n)
    E1 = sla.expm(-2j * t * J @ q.Q)
    E2 = sla.expm(-2j * t * J @ q.Q.conj())
    LA = mat_log_principal(E1 @ E2, tol=tol)
    A = np.linalg.solve(-4j * t * J, LA)
    scaleA = max(1.0, np.linalg.norm(A))
    if np.linalg.norm(A.imag) > tol * scaleA:
        raise NotRealWithinTol(
            f"imag part of A has norm {np.linalg.norm(A.imag):.3e}",
            module=_MOD, operation="polar_factors")
    A = (A.real + A.real.T) / 2
    lam = float(np.linalg.eigvalsh(A).min())
    if lam < -tol * scaleA:
        raise NotPSDWithinTol(f"A has lambda_min = {lam:.3e}",
                              module=_MOD, operation="polar_factors")
    EB = sla.expm(2j * t * J @ A) @ E1
    LB = mat_log_principal(EB, tol=tol)
    B = np.linalg.solve(2 * t * J, LB)
    if np.linalg.norm(B.imag) > tol * max(1.0, np.linalg.norm(B)):
        raise NotRealWithinTol(
            f"imag part of B has norm {np.linalg.norm(B.imag):.3e}",
            module=_MOD, operation="polar_factors")
    B = (B.real + B.real.T) / 2
    recon = sla.expm(-2j * t * J @ A) @ sla.expm(2 * t * J @ B) - E1
    return PolarFactors(float(t), A, B, float(np.linalg.norm(recon)))


def _three_factor_product(D, M, W, t, J):
    # middle block [[0, M^T], [M, 0]] equals 2 embed_cross(M)
    return (sla.expm(-2 * t * J @ embed_xixi(D).real)
            @ sla.expm(-2 * t * J @ embed_cross(M).real)
            @ sla.expm(t * J @ embed_xx(W).real))


def unitary_factorization(B, t: float) -> UnitaryFactors:
    """Solve the three-factor splitting of S = exp(2tJB) in closed form.

    The factors are [[I, -2tD], [0, I]], diag(e^{-tM}, e^{tM^T}) and
    [[I, 0], [-tW, I]]; their product has lower-right block e^{tM^T},
    lower-left block -t e^{tM^T} W and upper-right block -2t D e^{tM^T}, so

        M = log(S22^T) / t,  W = -S22^{-1} S21 / t,  D = -S12 S22^{-1} / (2t),

    with D and W symmetric because S is symplectic.  The splitting exists
    exactly when S22 has no eigenvalue on (-inf, 0] (BranchCut otherwise).
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0] // 2
    J = standard_J(n)
    if t == 0:
        return UnitaryFactors(D=-B[n:, n:], M=-2 * B[n:, :n], W=2 * B[:n, :n],
                              residual=0.0, iterations=0)
    S = sla.expm(2 * t * J @ B)
    S12, S21, S22 = S[:n, n:], S[n:, :n], S[n:, n:]
    M = mat_log_principal(S22.T).real / t
    W = -np.linalg.solve(S22, S21) / t
    D = -np.linalg.solve(S22.T, S12.T).T / (2 * t)
    D, W = (D + D.T) / 2, (W + W.T) / 2
    res = float(np.linalg.norm(_three_factor_product(D, M, W, t, J) - S))
    return UnitaryFactors(D=D, M=M, W=W, residual=res, iterations=0)


def strang_middle(A, B, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Middle term P(A, B) = (-2iJ)^{-1} log(e^{2iJB} e^{-2iJA} e^{2iJB}).

    Defined for ||A||, ||B|| < log(2)/6 where the log stays principal.  P is
    real symmetric; when 0 <= 5B <= A and ||A|| is small, P >= A/2.  The
    build checks both of those inequalities itself (decompose._factors_at).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0] // 2
    J = standard_J(n)
    na, nb = spectral_norm(A), spectral_norm(B)
    if na >= STRANG_RADIUS or nb >= STRANG_RADIUS:
        raise RadiusExceeded(
            f"|A| = {na:.4f}, |B| = {nb:.4f} must be below log(2)/6 = "
            f"{STRANG_RADIUS:.4f}", module=_MOD, operation="strang_middle")
    core = sla.expm(2j * J @ B) @ sla.expm(-2j * J @ A) @ sla.expm(2j * J @ B)
    P = np.linalg.solve(-2j * J, mat_log_principal(core, tol=tol))
    scale = max(1.0, np.linalg.norm(P))
    if np.linalg.norm(P.imag) > tol * scale:
        raise NotRealWithinTol(
            f"imag part of P has norm {np.linalg.norm(P.imag):.3e}",
            module=_MOD, operation="strang_middle")
    return (P.real + P.real.T) / 2


def _default_t_grid(t_max: float = 0.1, points: int = 20) -> np.ndarray:
    return np.logspace(-3, np.log10(t_max), points)


def _perp_basis(basis: np.ndarray, n2: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(basis)."""
    if basis.shape[1] == 0:
        return np.eye(n2)
    return null_space(basis.T.astype(complex)).real


def _factors_at(q, q_sheared, cert, gamma, alpha, t, t0, *, tol,
                pol=None) -> DecompositionFactors:
    """Run every per-t stage at (t, gamma) and return the factors at t.

    Stages and checks, in order: polar factors (unless pol is given), unitary
    split, twisted-diffusion inversion, arctan sandwich, Strang middle term,
    P >= A/2, 5B <= A.  The first failed check raises its QsemiError.
    """
    if pol is None:
        pol = polar_factors(q_sheared, t, tol=tol)
    uni = unitary_factorization(pol.B, t)
    s = gamma * t ** alpha
    Rs, pf = mehler_inverse_twisted(cert.N, s, tol=tol)
    Nmat = twisted_form_matrix(cert.N)
    lo = float(np.linalg.eigvalsh(Rs - Nmat).min())
    hi = float(np.linalg.eigvalsh(2 * Nmat - Rs).min())
    if lo < -1e-10 or hi < -1e-10:
        raise NotPSDWithinTol(f"arctan sandwich margins ({lo:.2e}, {hi:.2e})",
                              module=_MOD, operation="build_decomposition")
    Am, Bm = t * pol.A, s * Rs
    P = strang_middle(Am, Bm, tol=tol)
    for what, gap in (("p_t >= a_t/2", P - Am / 2), ("5B <= A", Am - 5 * Bm)):
        margin = float(np.linalg.eigvalsh(gap).min())
        if margin < -tol:
            raise NotPSDWithinTol(f"{what} fails (margin {margin:.3e})",
                                  module=_MOD, operation="build_decomposition")
    c_t = pf ** (-2) * float(np.exp(0.5 * t * np.trace(uni.M)))
    return DecompositionFactors(
        q=q, t=float(t), G=cert.G, N=cert.N, Gsym=cert.Gsym, gamma=gamma,
        alpha=alpha, c_t=c_t, Pt=P / t, unitary=uni, Rs=Rs, prefactor=pf,
        s=s, t0=t0, polar=pol, q_sheared=q_sheared)


def select_gamma(q: QuadraticForm, report: SingularSpaceReport,
                 cert: GraphCertificate, t_grid=None, *,
                 tol: float = DEFAULT_TOL) -> GammaSelection:
    """Pick the twisted-diffusion strength gamma and the validity horizon t0.

    gamma_t is the largest gamma with t A_t - 10 gamma t^alpha NN >= 0,
    computed from the generalized eigenvalues of (NN, A_t) restricted to the
    complement of the singular space (both matrices kill S); gamma takes a
    0.9 safety factor under the grid minimum.  t0 is the largest grid prefix
    on which every per-t stage and check of build_decomposition passes, on
    the gamma loop's polar factors; stop_reason names the error that ended it.
    """
    if cert is None:
        raise GraphConditionFailed("no graph certificate", module=_MOD,
                                   operation="select_gamma")
    t_grid = _default_t_grid() if t_grid is None else np.asarray(t_grid, float)
    q_sheared = conjugate_by_linear(q, shear_transform(cert.Gsym))
    report_sh = singular_space(q_sheared, tol=report.tol)
    alpha = 2 * report.k0 + 1
    Nmat = twisted_form_matrix(cert.N)
    n2 = 2 * q.n
    U = _perp_basis(report_sh.basis, n2)
    Nbar = U.T @ Nmat @ U
    gammas = np.empty_like(t_grid)
    polars = []
    for i, t in enumerate(t_grid):
        try:
            pol = polar_factors(q_sheared, float(t), tol=tol)
        except (QsemiError, np.linalg.LinAlgError) as exc:
            raise GammaCollapsed(f"polar factors failed at t = {t:.3g}: {exc}",
                                 module=_MOD, operation="select_gamma") from exc
        polars.append(pol)
        Abar = U.T @ pol.A @ U
        lam_min = float(np.linalg.eigvalsh(Abar).min()) if Abar.size else 1.0
        if lam_min <= 0:
            raise GammaCollapsed(
                f"A_t not positive on the complement of S at t = {t:.3g} "
                f"(lambda_min = {lam_min:.3e})",
                module=_MOD, operation="select_gamma")
        mu = float(sla.eigh(Nbar, Abar, eigvals_only=True).max()) if Nbar.size else 0.0
        if mu <= tol:
            gammas[i] = 1e6  # twisted form vanishes on the complement
        else:
            gammas[i] = float(t) ** (1 - alpha) / (10 * mu)
    gamma = 0.9 * float(gammas.min())
    if not np.isfinite(gamma) or gamma <= 0:
        raise GammaCollapsed(f"gamma = {gamma}", module=_MOD,
                             operation="select_gamma")
    t0, stop_reason = 0.0, None
    for pol in polars:
        try:
            _factors_at(q, q_sheared, cert, gamma, alpha, pol.t, pol.t, tol=tol, pol=pol)
        except (QsemiError, np.linalg.LinAlgError) as exc:
            stop_reason = f"{type(exc).__name__}: {exc}"
            break
        t0 = pol.t
    if t0 == 0.0:
        why = f": {stop_reason}" if stop_reason else ""
        raise GammaCollapsed(f"no grid point passes the validity predicates{why}",
                             module=_MOD, operation="select_gamma")
    return GammaSelection(gamma, t0, t_grid, gammas, stop_reason)


def build_decomposition(q: QuadraticForm, t: float, *, t_grid=None,
                        gamma_sel: GammaSelection | None = None,
                        tol: float = DEFAULT_TOL) -> DecompositionFactors:
    """Run the full pipeline at time t and return the factor data.

    Pipeline: singular space -> graph certificate -> shear conjugation ->
    gamma selection -> at t, the per-t stages and checks that set t0 (polar
    factors, unitary split, twisted inversion, Strang middle) -> prefactor.
    """
    report = singular_space(q, tol=tol)
    cert = graph_condition(report, tol=tol)
    if cert is None:
        raise GraphConditionFailed(
            "singular space meets {0} x R^n; the factorization hypothesis fails",
            module=_MOD, operation="build_decomposition")
    if gamma_sel is None:
        if t_grid is None and t > 0.1:
            t_grid = _default_t_grid(t_max=t)
        gamma_sel = select_gamma(q, report, cert, t_grid, tol=tol)
    if t > gamma_sel.t0 * (1 + 1e-12):
        why = f": {gamma_sel.stop_reason}" if gamma_sel.stop_reason else ""
        raise TimeTooLarge(f"t = {t} beyond the validity horizon t0 = "
                           f"{gamma_sel.t0}{why}", module=_MOD,
                           operation="build_decomposition")
    q_sheared = conjugate_by_linear(q, shear_transform(cert.Gsym))
    return _factors_at(q, q_sheared, cert, gamma_sel.gamma, 2 * report.k0 + 1,
                       t, gamma_sel.t0, tol=tol)


def _phase_shadow(theta: np.ndarray) -> np.ndarray:
    n = theta.shape[0]
    I = np.eye(n)
    Z = np.zeros((n, n))
    return np.block([[I, Z], [theta, I]])


def verify_decomposition(f: DecompositionFactors) -> dict:
    """Check the factorization at matrix and kernel level.

    matrix_residual: Frobenius distance between the product of the factor
    shadows and exp(-2itJQ).  kernel_residual: relative distance between the
    composed Gaussian kernel of all factors (scalar prefactors included) and
    the kernel synthesized directly from the symbol of exp(-t q^w).
    """
    q, t, s = f.q, f.t, f.s
    n = q.n
    J = standard_J(n)

    shadow = _phase_shadow(f.Gsym)
    shadow = shadow @ sla.expm(-2j * J @ (s * f.Rs))
    shadow = shadow @ sla.expm(-2j * J @ (t * f.Pt))
    shadow = shadow @ sla.expm(-2j * J @ (s * f.Rs))
    shadow = shadow @ sla.expm(-2j * t * J @ (1j * embed_xixi(f.D_op)))
    shadow = shadow @ sla.expm(-2j * t * J @ (-1j * embed_cross(f.M_op)))
    shadow = shadow @ _phase_shadow(t * f.W_op - f.Gsym)
    direct = sla.expm(-2j * t * J @ q.Q)
    matrix_residual = float(np.linalg.norm(shadow - direct))

    eps = 2 * s
    stage = "twisted o middle"
    try:
        ktw = twisted_kernel(f.N, eps)
        kp = kernel_from_symbol(mehler_symbol(QuadraticForm(n, f.Pt), t))
        k = compose_kernels(ktw, kp)
        stage = "middle o twisted"
        k = compose_kernels(k, ktw)
    except NonIntegrableComposition as exc:
        raise NonIntegrableComposition(
            f"composition failed at {stage}: {exc}",
            module=_MOD, operation="verify_decomposition") from exc
    k = kernel_left_phase(k, f.Gsym)
    k = kernel_right_dispersion(k, f.D_op, t)
    k = kernel_right_transport(k, f.M_op, t)
    k = kernel_right_phase(k, t * f.W_op - f.Gsym)
    k = GaussianKernel(n, k.c * f.c_t, k.K)

    target = kernel_from_symbol(mehler_symbol(q, t))
    dc = abs(k.c - target.c) / abs(target.c)
    dK = np.linalg.norm(k.K - target.K) / max(1.0, np.linalg.norm(target.K))
    return {"matrix_residual": matrix_residual,
            "kernel_residual": float(max(dc, dK))}

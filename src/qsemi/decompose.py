"""Multi-factor decomposition of exp(-t q^w) under the graph condition.

Everything is driven by the exact dictionary between evolution operators and
2n x 2n matrices: a product of operators exp(-t p_k^w) (complex forms p_k,
Re p_k >= 0) equals exp(-t p^w) exactly when the corresponding matrices
exp(-2itJP_k) multiply to exp(-2itJP).  All stages below construct matrix
identities; the operator-level claim is inherited through that dictionary and
re-verified at the Gaussian-kernel level by verify_decomposition.

Assembled factorization (left to right as operators):

    exp(-t q^w) = c_t * phase(Gsym) * TW * exp(-t p_t^w) * TW
                  * exp(-i t D grad.grad) * (u -> u(e^{tM} .))
                  * phase(-t W - Gsym),

where phase(T) multiplies by exp(i Tx.x / 2), TW is the twisted diffusion
(e^{-gamma t^alpha |xi - Nx|^2})^w, and (D, M, W) are the factors of the
unitary split as DecompositionFactors.unitary stores them (UnitaryFactors).

Every per-t stage (_polar, _unitary, mehler.inverse_twisted, _strang and
the checks of _factors_at) is one piece of code that runs at one time or
stacked over a grid of times; select_gamma runs the grid and the build time
t at once, and the public stage functions run at one t.  A stacked pass
records each failed entry's first error (matfun.Checks), so no entry is run
again alone to learn it.  select_gamma's pencil is an n x n closed form.

Matrix functions: a time point of the build forms two exponentials, each
once, and three principal logs (matfun.log_principal: truncated Taylor sums
by Paterson-Stockmeyer, the whole stack in one pass of matmuls, with no
solve where no entry needs a square root).  exp(-2itJQ), one matrix over
the grid and t, comes from one matfun.expm_grid call, Taylor sums on one set
of powers of -2iJQ; exp(2itJA), distinct at each time, from matfun.expm,
which takes the whole grid in one stacked pass of Taylor sums.  For X = JS
with S symmetric, J^T X^T J = -X, so exp(-X) = J^T exp(X)^T J
(matfun.symplectic_inverse).
_polar forms exp(-2itJQ) and exp(2itJA), with A from the log of
exp(-4itJA) = exp(-2itJQ) exp(-2itJ conj Q);
exp(-2itJ conj Q) is the conjugate of exp(2itJQ) = J^T exp(-2itJQ)^T J, and
exp(-2itJA) = J^T exp(2itJA)^T J.  S = exp(2tJB) is the real part of
exp(2itJA) exp(-2itJQ), taken with no log of B and no exponential of it.
_polar keeps exp(-2itJA), S and exp(-2itJQ) on PolarFactors.  _unitary
reads (D, M, W), with the log of S22^T, off S.  The two residuals, of the
polar split against exp(-2itJQ) and of the product of the three factors
against S (in closed form: the shears are I + X with X^2 = 0, and only
e^{tM}, n x n, takes expm), are formed when read, at the entries read:
decompose reports them at t, and verify never forms them.  _strang
multiplies the kept exp(-2itJA) by exp(2iJ sR_s), the Cayley transform that
inverse_twisted forms with R_s from one n x n solve (no log, no expm), and
takes the log of the product.  The sandwich NN <= R_s <= 2NN is not checked
again: it holds by inverse_twisted's closed form.  Each
(c tJ)^{-1} L is J^T L / (c t), with no solve.  The public stage functions
form their own exponentials, by the same two routes.  The sheared form that
select_gamma runs on is gated once: a shear has determinant 1 and cannot
break what QuadraticForm checked of q (quadform._congruence_unchecked).
verify_decomposition forms its five distinct shadows (the twisted one, on
both sides of the middle term, once) in one scipy.linalg.expm call on their
stack, a second implementation of the exponential, so its matrix residual
checks these closed forms and matfun.expm independently.  Its kernel
residual takes the symbols of p_t and q from one matfun.expm call
(mehler.stacked_symbol), and the transport e^{-tM} from the oracle's
transport shadow.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateTime,
    GammaCollapsed,
    GraphConditionFailed,
    NonSquare,
    NotPSDWithinTol,
    NotRealWithinTol,
    QsemiError,
    RadiusExceeded,
    TimeTooLarge,
)
from .matfun import (
    DEFAULT_TOL,
    Checks,
    expm,
    expm_grid,
    first_index,
    identity,
    log_principal,
    relative_distance,
    rounding_allowance,
    symplectic_inverse,
)
from .mehler import (
    GaussianKernel,
    kernel_from_symbol,
    kernel_left_phase,
    kernel_right_dispersion,
    kernel_right_phase,
    kernel_right_transport,
    inverse_twisted,
    stacked_symbol,
    twisted_sandwich,
)
from .quadform import (
    QuadraticForm,
    _congruence_unchecked,
    embed_cross,
    embed_xixi,
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
    """Real forms a_t, b_t with exp(-2itJA) exp(2tJB) = exp(-2itJQ).

    EA = exp(-2itJA) and S = exp(2tJB) are the two factors of that identity,
    E1 = exp(-2itJQ) its right-hand side: the unitary split reads (D, M, W)
    off S and the Strang middle term multiplies by EA.  S is read off
    exp(2itJA) exp(-2itJQ) with no log, so B = (2tJ)^-1 log S is formed only
    when read, by the principal log (BranchCut where S leaves its branch);
    the build never reads it.  recon_residual, the Frobenius distance
    between EA S and E1, is formed when read too: decompose reports it at t,
    and verify never reads it.

    Over a grid of T times, t, A, EA, S, E1 and recon_residual are stacked:
    shapes (T,), (T, 2n, 2n) for the four matrices and (T,); indexing picks
    one time.
    """
    t: float
    A: np.ndarray
    EA: np.ndarray
    S: np.ndarray
    E1: np.ndarray = field(repr=False)
    _B: np.ndarray | None = field(default=None, repr=False)  # b_t, once formed

    @property
    def B(self) -> np.ndarray:
        if self._B is None:
            S = self.S
            t = 2 * np.asarray(self.t, dtype=float)[..., None, None]
            B = standard_J(S.shape[-1] // 2).T @ _log(S, DEFAULT_TOL, Checks()).real / t
            self._B = (B + B.mT) / 2
        return self._B

    @property
    def recon_residual(self):
        # E1 overflows at large t, where its entry has failed
        with np.errstate(over="ignore", invalid="ignore"):
            return _fro(self.EA @ self.S - self.E1)[()]

    def __getitem__(self, i) -> "PolarFactors":
        return PolarFactors(self.t[i], self.A[i], self.EA[i], self.S[i], self.E1[i])


@dataclass
class UnitaryFactors:
    """Solution (D, M, W) of the three-factor splitting of exp(2tJB):

        exp(2tJB) = exp(-2tJ [[0,0],[0,D]]) exp(-tJ [[0,M^T],[M,0]])
                    exp(tJ [[W,0],[0,0]]).

    residual, the Frobenius distance between that product and S =
    exp(2tJB), is formed when read (_three_factor_product): decompose
    reports it at t, and verify never reads it.  iterations is always 0, as
    the split is read off in closed form; the field is kept for its reader,
    bench/spans.py, which sums it into a per-op counter.

    Over a grid of T times, D, M, W, t and S are stacked; indexing picks
    one time.
    """
    D: np.ndarray
    M: np.ndarray
    W: np.ndarray
    t: float = field(repr=False)
    S: np.ndarray = field(repr=False)
    iterations: int = 0

    @property
    def residual(self):
        t = np.asarray(self.t, dtype=float)[..., None, None]
        return _fro(_three_factor_product(self.D, self.M, self.W, t) - self.S)[()]

    def __getitem__(self, i) -> "UnitaryFactors":
        return UnitaryFactors(self.D[i], self.M[i], self.W[i], self.t[i], self.S[i],
                              self.iterations)


@dataclass
class GammaSelection:
    gamma: float
    t0: float
    t_grid: np.ndarray
    gamma_grid: np.ndarray
    stop_reason: str | None = None   # "<error type>: <message>" that ended t0
    factors: DecompositionFactors = field(repr=False, default=None)  # grid, then t
    t_error: QsemiError | None = None  # the first error of the entry at t


@dataclass
class DecompositionFactors:
    """Everything needed to evaluate and verify the factorization at time t,
    or stacked over the times of select_gamma's pass; indexing picks one."""
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
    t0: float = float("nan")         # the validity horizon, set by select_gamma
    polar: PolarFactors = field(repr=False, default=None)
    q_sheared: QuadraticForm = field(repr=False, default=None)

    def __getitem__(self, i) -> "DecompositionFactors":
        return DecompositionFactors(**vars(self) | dict(
            t=self.t[i], c_t=self.c_t[i], Pt=self.Pt[i], unitary=self.unitary[i],
            Rs=self.Rs[i], prefactor=self.prefactor[i], s=self.s[i], polar=self.polar[i]))


def _fro(X) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(X, axis=(-2, -1))


def _log(Z, tol, checks):
    return log_principal(Z, Z - identity(Z.shape[-1]), tol, checks)


def _polar(q: QuadraticForm, t, tol: float, checks: Checks) -> PolarFactors:
    """polar_factors at t > 0, a time or an array of times (factors stacked)."""
    op = "polar_factors"
    t = np.asarray(t, dtype=float)
    J = standard_J(q.n)
    t_ = t[..., None, None]
    tJ = t_ * J
    # exp(-2itJQ) may overflow at large t: the log fails those entries, and
    # they keep that error through the steps after it.
    # exp(-2itJ conj Q) is the conjugate of exp(2itJQ) = E1^-1
    with np.errstate(over="ignore", invalid="ignore"):
        E1 = expm_grid(-2j * J @ q.Q, t)
        E1inv = symplectic_inverse(E1)
        A = 1j * (J.T @ _log(E1 @ E1inv.conj(), tol, checks)) / (4 * t_)
    scaleA = np.maximum(1.0, _fro(A))
    # the division by 4t overflows where t is near the least float (1e-310)
    checks(~np.isfinite(scaleA), DegenerateTime,
           lambda i: f"A is not finite at t = {t.flat[i]:.3g}", module=_MOD, operation=op)
    A, scaleA = checks.clean(A, 0), checks.clean(scaleA, 1.0)
    imag = _fro(A.imag)
    checks(imag > tol * scaleA, NotRealWithinTol,
           lambda i: f"imag part of A has norm {imag.flat[i]:.3e}",
           module=_MOD, operation=op)
    A = (A.real + A.real.mT) / 2
    lam = np.linalg.eigvalsh(A)[..., 0]
    checks(lam < -tol * scaleA, NotPSDWithinTol,
           lambda i: f"A has lambda_min = {lam.flat[i]:.3e}", module=_MOD, operation=op)
    # S is symplectic, so R = Re S has R^T J R = J + (Im S)^T J Im S: R is
    # symplectic to second order in Im S, and R^-1 Im S = J^T R^T J Im S to
    # first order is the imaginary part of the generator 2tJB (J^T, being
    # orthogonal, leaves the norm alone)
    with np.errstate(over="ignore", invalid="ignore"):
        EAinv = expm(2j * tJ @ A)
        EA = symplectic_inverse(EAinv)
        S = EAinv @ E1
        imag = _fro(S.real.mT @ J @ S.imag) / (2 * t)
        checks(imag > tol * scaleA, NotRealWithinTol,
               lambda i: f"imag part of S has norm {imag.flat[i]:.3e} at its generator",
               module=_MOD, operation=op)
        S = np.ascontiguousarray(S.real)
    return PolarFactors(t[()], A, EA, S, E1)


def polar_factors(q: QuadraticForm, t: float) -> PolarFactors:
    """Split exp(-t q^w) into self-adjoint and unitary matrix shadows.

    A comes from exp(-4itJA) = exp(-2itJQ) exp(-2itJ conj(Q)), whose log
    must stay principal (BranchCut otherwise); S = exp(2tJB) is the real part
    of exp(2itJA) exp(-2itJQ), and B its log, formed when read.  The
    imaginary parts of A and of S's generator are checked at q.tol and dropped.
    """
    if t == 0:
        I = np.eye(2 * q.n)
        return PolarFactors(0.0, q.Q.real.copy(), I, I.copy(), I.copy(), q.Q.imag.copy())
    return _polar(q, t, q.tol, Checks())


def _three_factor_product(D, M, W, t):
    """[[I, -2tD], [0, I]] diag(e^{-tM}, e^{tM^T}) [[I, 0], [-tW, I]], the
    product of the three factors of the unitary split.

    The shears are the exponentials of square-zero matrices, so they are
    exact; only e^{tM} (n x n) goes through expm, which keeps the residual a
    check of the log that gave M.
    """
    R = expm(t * M).mT                      # e^{tM^T}
    L = np.linalg.inv(R).mT                 # e^{-tM}
    X, Y = -2 * t * D, -t * W
    n = R.shape[-1]
    P = np.empty(R.shape[:-2] + (2 * n, 2 * n))
    P[..., :n, :n], P[..., :n, n:] = L + X @ R @ Y, X @ R
    P[..., n:, :n], P[..., n:, n:] = R @ Y, R
    return P


def _unitary(S, t, tol: float, checks: Checks) -> UnitaryFactors:
    """unitary_factorization of S = exp(2tJB) at t > 0, a time or an array of
    times (S and the factors stacked over them)."""
    n = S.shape[-1] // 2
    t = np.asarray(t, dtype=float)
    t_ = t[..., None, None]
    S12, S21, S22 = S[..., :n, n:], S[..., n:, :n], S[..., n:, n:]
    M = _log(S22.mT, tol, checks).real / t_
    S22 = checks.clean(S22, identity(n))
    W = -np.linalg.solve(S22, S21) / t_
    D = -np.linalg.solve(S22.mT, S12.mT).mT / (2 * t_)
    D, W = (D + D.mT) / 2, (W + W.mT) / 2
    return UnitaryFactors(D=D, M=M, W=W, t=t[()], S=S)


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
    if t == 0:
        return UnitaryFactors(D=-B[n:, n:], M=-2 * B[n:, :n], W=2 * B[:n, :n],
                              t=0.0, S=np.eye(2 * n))
    return _unitary(expm(2 * t * standard_J(n) @ B), t, DEFAULT_TOL, Checks())


def _strang(A, B, EA, EB, tol: float, checks: Checks) -> np.ndarray:
    """strang_middle of each pair of a stack of pairs (A, B), given their
    exponentials EA = exp(-2iJA) and EB = exp(2iJB)."""
    op = "strang_middle"
    m = A.shape[-1]
    J = standard_J(m // 2)
    fa, fb = _fro(A), _fro(B)
    finite = np.isfinite(fa + fb)
    checks(~finite, NonSquare, "A or B has non-finite entries", module=_MOD, operation=op)
    # |.|_2 <= |.|_F: Frobenius norms below the radius with room for their
    # rounding and the SVD's pass an entry with no SVD
    svd = finite & ~(np.maximum(fa, fb) * (1 + rounding_allowance(m)) < STRANG_RADIUS)
    na, nb = np.zeros(fa.shape), np.zeros(fb.shape)
    if svd.any():
        na[svd] = np.linalg.norm(A[svd], 2, axis=(-2, -1))
        nb[svd] = np.linalg.norm(B[svd], 2, axis=(-2, -1))
    checks((na >= STRANG_RADIUS) | (nb >= STRANG_RADIUS), RadiusExceeded,
           lambda i: f"|A| = {na.flat[i]:.4f}, |B| = {nb.flat[i]:.4f} must be below "
                     f"log(2)/6 = {STRANG_RADIUS:.4f}", module=_MOD, operation=op)
    I = identity(m)
    EA, EB = checks.clean(EA, I), checks.clean(EB, I)
    P = 1j * (J.T @ _log(EB @ EA @ EB, tol, checks)) / 2
    imag = _fro(P.imag)
    checks(imag > tol * np.maximum(1.0, _fro(P)), NotRealWithinTol,
           lambda i: f"imag part of P has norm {imag.flat[i]:.3e}",
           module=_MOD, operation=op)
    return (P.real + P.real.mT) / 2


def strang_middle(A, B) -> np.ndarray:
    """Middle term P(A, B) = (-2iJ)^{-1} log(e^{2iJB} e^{-2iJA} e^{2iJB}).

    Defined for ||A||, ||B|| < log(2)/6 where the log stays principal.  P is
    real symmetric; when 0 <= 5B <= A and ||A|| is small, P >= A/2.  The
    build checks both of those inequalities itself (decompose._factors_at).
    A and B may be stacks of pairs, giving the stack of middle terms.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    J = standard_J(A.shape[-1] // 2)
    EB, EA = expm(np.stack([2j * J @ B, -2j * J @ A]))
    return _strang(A, B, EA, EB, DEFAULT_TOL, Checks())


def default_t_grid(t_max: float = 0.1) -> np.ndarray:
    """The t grid when none is given: 20 points log-spaced from 1e-3 to t_max."""
    return np.logspace(-3, np.log10(t_max), 20)


def _factors_at(q, q_sheared, cert, gamma, alpha, pol, *, tol,
                checks: Checks) -> DecompositionFactors:
    """Run every per-t stage at (pol.t, gamma) on the polar factors pol, at
    one time or stacked over a grid, and return the factors.

    Stages and checks, in order: unitary split, twisted-diffusion inversion,
    Strang middle term, P >= A/2, 5B <= A.  A failed check goes to checks.
    NN <= R_s <= 2NN needs no check: it holds by inverse_twisted's closed
    form, whose regime check keeps artanh(x)/x in [1, 1.25).
    """
    op = "build_decomposition"
    t = np.asarray(pol.t, dtype=float)
    uni = _unitary(pol.S, t, tol, checks)
    s = gamma * t ** alpha
    Rs, pf, ERs = inverse_twisted(cert.N, s, checks)
    Am, Bm = t[..., None, None] * pol.A, s[..., None, None] * Rs
    P = _strang(Am, Bm, pol.EA, ERs, tol, checks)
    for what, gap in (("p_t >= a_t/2", P - Am / 2), ("5B <= A", Am - 5 * Bm)):
        margin = np.linalg.eigvalsh(gap)[..., 0]
        checks(margin < -tol, NotPSDWithinTol,
               lambda i: f"{what} fails (margin {margin.flat[i]:.3e})",
               module=_MOD, operation=op)
    c_t = pf ** (-2) * np.exp(0.5 * t * np.trace(uni.M, axis1=-2, axis2=-1))
    return DecompositionFactors(
        q=q, t=t[()], G=cert.G, N=cert.N, Gsym=cert.Gsym, gamma=gamma,
        alpha=alpha, c_t=c_t[()], Pt=P / t[..., None, None], unitary=uni, Rs=Rs,
        prefactor=pf[()], s=s[()], polar=pol, q_sheared=q_sheared)


def _gammas(pol, U, LU, alpha, *, tol, checks: Checks) -> np.ndarray:
    """gamma_t at each time of pol, on a basis U of the complement of S, with
    LU = L U.  Checks: A_t positive and nonsingular there (GammaCollapsed)."""
    t = np.asarray(pol.t)
    Abar = U.T @ pol.A @ U
    lam = np.linalg.eigvalsh(Abar)[..., 0]
    singular = np.linalg.slogdet(Abar)[0] == 0  # a zero pivot of the solve's LU
    checks((lam <= 0) | singular, GammaCollapsed,
           lambda i: f"A_t {'not positive' if lam.flat[i] <= 0 else 'singular to rounding'}"
                     f" on the complement of S at t = {t.flat[i]:.3g} "
                     f"(lambda_min = {lam.flat[i]:.3e})",
           module=_MOD, operation="select_gamma")
    # on rank-n forms this moves gamma_t from scipy's pencil eigensolver by up
    # to 2.3e-6, below A_t's own rounding (5e-6 against mpmath at n = 5)
    Abar = checks.clean(Abar, identity(Abar.shape[-1]))
    mu = np.linalg.eigvalsh(LU @ np.linalg.solve(Abar, LU.T))[..., -1]
    vanishes = mu <= tol  # the twisted form vanishes on the complement
    t_alpha = checks.clean(t, 1.0) ** (1 - alpha)
    return np.where(vanishes, 1e6, t_alpha / (10 * np.where(vanishes, 1.0, mu)))


def select_gamma(q: QuadraticForm, report: SingularSpaceReport, cert: GraphCertificate,
                 t_grid=None, *, t: float | None = None) -> GammaSelection:
    """Pick the twisted-diffusion strength gamma and the validity horizon t0.

    gamma_t = t^(1 - alpha) / (10 mu_t) is the largest gamma with t A_t -
    10 gamma t^alpha NN >= 0 on the complement of the singular space (both
    kill S): mu_t = lambda_max(LU Abar_t^-1 (LU)^T), n x n, for NN = L^T L,
    L = [-N, I], on an orthonormal basis U of that complement, with Abar_t =
    U^T A_t U; gamma takes 0.9 of the grid minimum.  t0 is the largest prefix
    of the ascending grid on which every per-t stage and check of
    build_decomposition passes, on the polar factors of the gamma pass;
    stop_reason names the error that ended it; every check is at q.tol.

    Two stacked passes over the grid: polar factors and gamma_t, then the
    stages at gamma.  Each records every failed entry's first error, the one
    a loop over the ascending grid would meet there.  The first failed grid
    entry of the first pass raises its error (a polar one wrapped in
    GammaCollapsed); that of the second pass ends t0 and is stop_reason.
    The grid must be nonempty and every point positive (DegenerateTime).
    The build time t, when given, is one extra last entry of the polar
    factors and of the second pass that gamma and t0 never see: its first
    error only sets t_error.  factors keeps the second pass's factors (a
    failed entry holds cleaned values); the default grid reaches t.
    """
    if cert is None:
        raise GraphConditionFailed("no graph certificate", module=_MOD,
                                   operation="select_gamma")
    t_grid = (default_t_grid(max(0.1, t or 0)) if t_grid is None
              else np.asarray(t_grid, float).ravel())
    if t_grid.size == 0:
        raise DegenerateTime("the t grid is empty", module=_MOD, operation="select_gamma")
    times = np.append(t_grid, [] if t is None else t)
    Checks()(~(times > 0), DegenerateTime, lambda i: f"grid point t = {times[i]} is "
             "not positive", module=_MOD, operation="select_gamma")
    G = t_grid.size
    times[:G] = t_grid = np.sort(t_grid)
    # a shear has determinant 1: q_sheared needs none of QuadraticForm's checks
    q_sheared = _congruence_unchecked(q, shear_transform(cert.Gsym))
    alpha = 2 * report.k0 + 1
    # S(q o T) = T^-1 S(q) (T^-1: shear by -Gsym), of the dimension that
    # singular_space decided: its orthogonal complement, with no rank decision
    U = np.linalg.qr(shear_transform(-cert.Gsym) @ report.basis,
                     mode="complete")[0][:, report.dim:]
    LU = U[q.n:] - cert.N @ U[:q.n]  # L = [-N, I], NN = L^T L (twisted_form_matrix)
    checks = Checks(times.shape)
    pol = _polar(q_sheared, times, q.tol, checks)
    grid = Checks(G)
    grid.bad |= checks.bad[:G]  # a failed polar entry keeps the polar error
    gammas = _gammas(pol[:G], U, LU, alpha, tol=q.tol, checks=grid)
    i = first_index(grid.bad)
    if i in checks.errors:
        exc = checks.errors[i]
        raise GammaCollapsed(f"polar factors failed at t = {t_grid[i]:.3g}: {exc}",
                             module=_MOD, operation="select_gamma") from exc
    if i is not None:
        raise grid.errors[i]
    gamma = 0.9 * float(gammas.min())
    if not np.isfinite(gamma) or gamma <= 0:
        raise GammaCollapsed(f"gamma = {gamma}", module=_MOD,
                             operation="select_gamma")
    factors = _factors_at(q, q_sheared, cert, gamma, alpha, pol, tol=q.tol,
                          checks=checks)
    i = first_index(checks.bad[:G])
    exc = None if i is None else checks.errors[i]
    stop_reason = None if exc is None else f"{type(exc).__name__}: {exc}"
    if i == 0:
        raise GammaCollapsed(f"no grid point passes the validity predicates: {stop_reason}",
                             module=_MOD, operation="select_gamma")
    factors.t0 = float(t_grid[-1 if i is None else i - 1])
    return GammaSelection(gamma, factors.t0, t_grid, gammas, stop_reason, factors,
                          checks.errors.get(G))


def build_decomposition(q: QuadraticForm, t: float, *, t_grid=None) -> DecompositionFactors:
    """Run the full pipeline at time t > 0 and return the factor data.

    Pipeline: singular space -> graph certificate -> select_gamma, whose
    stacked passes run t with the grid (shear, polar factors, unitary split,
    twisted inversion, Strang middle, prefactor) -> its entry at t.  Beyond
    t0, TimeTooLarge; then the entry's first error at t, if it has one.
    """
    if not t > 0:
        raise DegenerateTime(f"t = {t} must be positive", module=_MOD,
                             operation="build_decomposition")
    report = singular_space(q)
    cert = graph_condition(report)
    if cert is None:
        raise GraphConditionFailed(
            "singular space meets {0} x R^n; the factorization hypothesis fails",
            module=_MOD, operation="build_decomposition")
    gamma_sel = select_gamma(q, report, cert, t_grid, t=t)
    if t > gamma_sel.t0 * (1 + 1e-12):
        why = f": {gamma_sel.stop_reason}" if gamma_sel.stop_reason else ""
        raise TimeTooLarge(f"t = {t} beyond the validity horizon t0 = "
                           f"{gamma_sel.t0}{why}", module=_MOD,
                           operation="build_decomposition")
    if gamma_sel.t_error is not None:
        raise gamma_sel.t_error
    return gamma_sel.factors[-1]


def verify_decomposition(f: DecompositionFactors) -> dict:
    """Check the factorization at matrix and kernel level.

    matrix_residual: Frobenius distance between the product of the factor
    shadows and exp(-2itJQ).  The five distinct exponentials (the twisted
    shadow, used on both sides of the middle term, the middle, dispersion and
    transport shadows, and exp(-2itJQ)) come from one scipy.linalg.expm call
    on their stack, independent of the build's closed forms and matfun.expm.
    The transport shadow is diag(e^{-tM}, e^{tM^T}), so its upper-left block
    is also the kernel's transport: verify makes no other scipy call.

    kernel_residual: relative distance between the composed Gaussian kernel
    of all factors (scalar prefactors included) and the kernel synthesized
    directly from the symbol of exp(-t q^w).  The symbols and kernels of the
    middle form p_t (Re p_t >= 0 by the build's p_t >= a_t/2 gate) and of q
    come from one stacked pass (mehler.stacked_symbol, at DEFAULT_TOL, not
    the run's q.tol); then the two twisted factors act on the middle kernel
    in covariance form (mehler.twisted_sandwich), so no kernel of order 1/s
    is formed, and the phase, dispersion and transport factors follow.
    """
    import scipy.linalg as sla  # the oracle's exponential: the build never loads scipy

    q, t, s, u = f.q, f.t, f.s, f.unitary
    n = q.n
    J = standard_J(n)

    X = np.empty((5, 2 * n, 2 * n), dtype=complex)  # the five generators
    J2, tJ2 = -2j * J, -2j * t * J
    X[0], X[1], X[2] = J2 @ (s * f.Rs), J2 @ (t * f.Pt), tJ2 @ (1j * embed_xixi(-u.D))
    X[3], X[4] = tJ2 @ (-1j * embed_cross(u.M)), tJ2 @ q.Q
    twisted, middle, dispersion, transport, direct = sla.expm(X)
    shadow = shear_transform(f.Gsym)
    for factor in (twisted, middle, twisted, dispersion, transport):
        shadow = shadow @ factor
    shadow = shadow @ shear_transform(-t * u.W - f.Gsym)
    matrix_residual = float(np.linalg.norm(shadow - direct))

    kernels = kernel_from_symbol(stacked_symbol(np.array([f.Pt, q.Q]), t))
    k, target = kernels[0], kernels[1]
    k = twisted_sandwich(k, f.N, 2 * s)
    k = kernel_left_phase(k, f.Gsym)
    k = kernel_right_dispersion(k, -u.D, t)
    k = kernel_right_transport(k, u.M, t, transport[:n, :n].real)
    k = kernel_right_phase(k, -t * u.W - f.Gsym)
    k = GaussianKernel(n, k.c * f.c_t, k.K)

    dc = abs(k.c - target.c) / abs(target.c)
    dK = relative_distance(k.K, target.K)  # |target.K|_F overflows below t ~ 1e-155
    # np.maximum keeps a nan, which fails the gate
    return {"matrix_residual": matrix_residual,
            "kernel_residual": float(np.maximum(dc, dK))}

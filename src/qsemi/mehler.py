"""Gaussian symbols and kernels for quadratic semigroups.

Symbols: exp(-t q^w) acts, when det cos(tJQ) != 0, as c (e^{-m})^w with
c = det cos(tJQ)^{-1/2} (on the branch continuous from 1 at t = 0, a
Pfaffian; see matfun.cos_sin_sqrt_det) and m the form of J^{-1} tan(tJQ).

Kernels: whenever the xi-xi block B of m has positive-definite real part,
(e^{-m})^w has the kernel g(x, y) = c exp(-K(x, y).(x, y)/2), stored as the
prefactor c and the complex symmetric K on the stacked variable (x, y).

Gaussian integrals: kernel synthesis (over xi), composition (the middle
variable), the dispersion factor (the Fourier variable) and, in evolve,
kernel application (y) each integrate one block through gaussian_integral.
Its prefactor's sqrt(det W) (_sqrt_det) takes no eigenvalues: the branch
comes from one batched slogdet of the even-order leading minors of W.
Its one decision, check_integrable (not_integrable, reported), is also the
only integrability test of sqrt_det_pd and of evolve's Gaussian states.
The twisted factors act on a kernel in covariance form (twisted_sandwich),
with no kernel of order 1/eps; inverse_twisted writes them as evolutions in
closed form from one SVD of N, with no matrix log, expm or eigenvalues.

Sweeps: mehler_symbol and kernel_from_symbol take a whole grid of times at
once and return symbols and kernels stacked over it; stacked_symbol takes a
stack of forms too, broadcast against the times (verify_decomposition's p_t
and q at one t).  The stack is one computation: one eigvals(JQ) per form
decides the conjugate points for every t, one matfun.expm call on the stack
of itJQ gives cos(tJQ) and sin(tJQ) at every entry (with exp(-itJQ) =
J^T exp(itJQ)^T J), and the Pfaffian, the tan solve, the kernel blocks and
every positivity check run on the stack.  kernel_right_transport, which only
verify_decomposition applies, keeps scipy.linalg.expm, the oracle's
exponential.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConjugatePointOnPath,
    DegenerateTime,
    DimensionMismatch,
    NonIntegrableComposition,
    NonIntegrableSymbol,
    SeriesRegimeViolated,
)
from .matfun import (
    DEFAULT_TOL,
    Checks,
    cos_sin_sqrt_det,
    first_index,
)
from .quadform import QuadraticForm, block_decompose, standard_J

_MOD = "mehler"


@dataclass
class MehlerSymbol:
    """Symbol data (c, M, t): exp(-t q^w) = c (e^{-m})^w with m(X) = MX.X.

    Over a grid of T times, c, M and t are stacked: shapes (T,), (T, 2n, 2n)
    and (T,); stacked_symbol stacks c and M over its forms too.
    """
    n: int
    c: complex
    M: np.ndarray
    t: float


@dataclass
class GaussianKernel:
    """Kernel g(x, y) = c * exp(-K(x,y).(x,y)/2) on the stacked variable.

    Kernels at a grid of T times are stacked: c of shape (T,), K of shape
    (T, 2n, 2n); indexing picks one, and evaluation by calling takes a
    single kernel.
    """
    n: int
    c: complex
    K: np.ndarray

    def __call__(self, x, y) -> complex:
        z = np.concatenate([np.atleast_1d(x), np.atleast_1d(y)]).astype(complex)
        return self.c * np.exp(-0.5 * z @ self.K @ z)

    def __getitem__(self, i) -> "GaussianKernel":
        return GaussianKernel(self.n, self.c[i], self.K[i])


@dataclass
class KernelDiagnostics:
    """The (P, V, M, N) matrices of the real-part normal form of a kernel.

    Re k(x, y) = v((x+y)/2) + p(Mleft x - Nright y) with p of matrix P and
    v of matrix V; Ker V has the dimension of the singular space.
    """
    P: np.ndarray
    V: np.ndarray
    Mleft: np.ndarray
    Nright: np.ndarray


#: positive-definiteness is judged relative to the block scale so that
#: legitimately tiny smoothing blocks (order t^(2 k0 + 1)) are not rejected,
#: while exact zeros (graph condition failing) always are
_PD_RELATIVE = 1e-12


def not_integrable(W) -> tuple[np.ndarray, np.ndarray]:
    """The one integrability decision: mask of the blocks W (..., m, m) whose
    int exp(-Wz.z/2) dz is taken to diverge, lambda_min(H) <= _PD_RELATIVE
    |H|_2 for H = sym Re W, and that lambda_min."""
    W = np.asarray(W)
    lam = np.linalg.eigvalsh((W.real + W.real.mT) / 2)  # |H|_2 = max |lam|
    return lam[..., 0] <= _PD_RELATIVE * np.abs(lam).max(axis=-1), lam[..., 0]


def check_integrable(W, error, *, module: str, operation: str, what: str,
                     checks: Checks | None = None) -> None:
    """Fail, as error from module.operation, the blocks of W, named `what`,
    that not_integrable flags: Checks(), the default, raises at the first."""
    bad, lam = not_integrable(W)
    (checks or Checks())(bad, error, lambda i: f"{what} must have positive-definite "
                         f"real part (lambda_min = {lam.flat[i]:.3e})",
                         module=module, operation=operation)


def _sqrt_det(W) -> np.ndarray:
    """sqrt(det W) of each complex symmetric block W (..., m, m) that
    not_integrable passes, on the branch continuous along Re W + is Im W
    from the positive root at s = 0 (the product of the principal roots of
    W's eigenvalues), with no eigenvalues: one batched slogdet of the
    leading minors W_2j of order 2, 4, ..., m, each padded with I.

    The ratio det W_2j / det W_2j-2 is the determinant of a 2 x 2 (or 1 x 1)
    Schur complement S, whose real part is positive-definite: for
    z = (-W_11^{-1} W_12 x, x), z*Wz = x*Sx, so Re x*Sx = z*(Re W)z > 0, as
    (W + W*)/2 = Re W.  The ratio's argument so stays in (-pi, pi) along the
    path, and the root is exp((log|det W| + i theta)/2) for theta the sum of
    the principal arguments of the ratios: arg det W less 2 pi per wrap.
    """
    W = np.asarray(W, dtype=complex)
    m = W.shape[-1]
    h = np.arange(m) // 2  # index a is in minor j (order 2j + 2, or m) for j >= a // 2
    lead = np.maximum.outer(h, h) <= np.arange((m + 1) // 2)[:, None, None]
    sign, logdet = np.linalg.slogdet(np.where(lead, W[..., None, :, :], np.eye(m)))
    phi = np.arctan2(sign.imag, sign.real)
    wraps = np.rint((phi[..., 1:] - phi[..., :-1]) / (2 * np.pi)).sum(axis=-1)
    return np.exp((logdet[..., -1] + 1j * (phi[..., -1] - 2 * np.pi * wraps)) / 2)[()]


def sqrt_det_pd(A) -> complex:
    """_sqrt_det of A (..., m, m): DimensionMismatch at the first matrix that
    is not square and complex symmetric within 1e-12 max(1, |A|) (the integral
    of exp(-z.Az/2) sees only sym A, so it has no root for another A), then
    check_integrable, which raises NonIntegrableSymbol at the first failing
    matrix."""
    A = np.asarray(A, dtype=complex)
    op = "sqrt_det_pd"
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"A of shape {A.shape} is not a (stack of) square "
                                "matrices", module=_MOD, operation=op)
    Checks()(np.linalg.norm(A - A.mT, axis=(-2, -1))
             > 1e-12 * np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1))),
             DimensionMismatch, "matrix must be complex symmetric", module=_MOD,
             operation=op)
    check_integrable(A, NonIntegrableSymbol, module=_MOD, operation=op, what="matrix")
    return _sqrt_det(A)


def gaussian_integral(K, b, m, error, *, module: str, operation: str, what: str,
                      checks: Checks | None = None):
    """(c, S, l) with int exp(-z.Kz/2 + b.z) dw = c exp(-r.Sr/2 + l.r) over
    the last m coordinates w of z = (r, w), K (..., d, d) and b (..., d) (or
    None, for 0) on one entry or a stack.  The integral sees only sym K =
    (K + K^T)/2, so K stands for that below: for W = K_ww, S = K_rr - K_rw
    W^{-1} K_wr, l = b_r - K_rw W^{-1} b_w and c = (2 pi)^{m/2} det(W)^{-1/2}
    exp(b_w.W^{-1} b_w / 2), the root that of _sqrt_det (from the leading
    minors of W, with no eigenvalues).  The one decision, check_integrable
    on W, goes to checks: Checks() raises, a recording Checks keeps the
    failed entries, whose W becomes I.
    """
    K = (K + K.mT) / 2
    r, I = K.shape[-1] - m, np.eye(m)
    b = np.zeros(K.shape[:-1]) if b is None else b
    checks = Checks() if checks is None else checks
    check_integrable(K[..., r:, r:], error, module=module, operation=operation,
                     what=what, checks=checks)
    W = checks.clean(K[..., r:, r:], I)
    X = np.linalg.solve(W, np.concatenate([K[..., r:, :r], b[..., r:, None]], axis=-1))
    S = K[..., :r, :r] - K[..., :r, r:] @ X[..., :r]
    l = b[..., :r] - (K[..., :r, r:] @ X[..., r:])[..., 0]
    c = ((2 * np.pi) ** (m / 2) / _sqrt_det(W)
         * np.exp(np.sum(b[..., r:] * X[..., r], axis=-1) / 2))
    return c, (S + S.mT) / 2, l


def mehler_symbol(q: QuadraticForm, t, *,
                  tol: float = DEFAULT_TOL) -> MehlerSymbol:
    """Symbol of exp(-t q^w): prefactor 1/sqrt(det cos(tJQ)) and form of
    J^{-1} tan(tJQ), on the determinant branch continuous from t = 0.

    t may be an array of times: c, M and t are then stacked over it.  A
    failure names the first failing t, at QsemiError.index.  This is
    stacked_symbol of the one form q.Q.
    """
    return stacked_symbol(q.Q, t, tol=tol)


def stacked_symbol(Q, t, *, tol: float = DEFAULT_TOL) -> MehlerSymbol:
    """mehler_symbol of each form of a stack Q (..., 2n, 2n), complex
    symmetric with Re Q >= 0 (as QuadraticForm keeps them), at a time or an
    array of times t broadcast against the stack: c and M are stacked over
    the broadcast shape, t is kept as given, and a failure's index is a
    position in that shape (a negative time's, in t).

    One matfun.cos_sin_sqrt_det pass gives cos, sin and the root at every
    entry, then one stacked solve the tangents.  An entry's M comes out as it
    would alone, its c up to the last bit of the Pfaffian root.
    """
    t = np.asarray(t, dtype=float)
    i = first_index(t < 0)
    if i is not None:
        raise DegenerateTime("t must be nonnegative", module=_MOD,
                             operation="mehler_symbol", index=i)
    try:
        C, S, root = cos_sin_sqrt_det(Q, t, tol=tol)
    except ConjugatePointOnPath as exc:
        raise DegenerateTime(str(exc), module=_MOD, operation="mehler_symbol",
                             index=exc.index) from exc
    n = C.shape[-1] // 2
    M = standard_J(n).T @ np.linalg.solve(C, S)
    M = (M + M.mT) / 2
    # the zero symbol, without the signed zeros of the solve
    M = np.where((t == 0)[..., None, None], 0, M)
    return MehlerSymbol(n, 1.0 / root, M, t[()])


def kernel_from_symbol(sym: MehlerSymbol) -> GaussianKernel:
    """Gaussian kernel of sym.c * (e^{-m})^w, the gaussian_integral of
    (2 pi)^{-n} sym.c exp(i (x - y).xi - m((x + y)/2, xi)) over xi.

    Raises NonIntegrableSymbol exactly when the graph condition fails for the
    underlying form (degenerate Re B), in which case the operator has no
    locally integrable Gaussian kernel.  A symbol stacked over t gives the
    kernels stacked over t.
    """
    n = sym.n
    ix, w = np.r_[:n, :n, n:2 * n], np.repeat([1.0, 1.0, 2.0], n)
    K = sym.M[..., ix[:, None], ix] * np.outer(w, w) / 2  # m at ((x + y)/2, xi)
    phase = np.kron([[0, 0, -1], [0, 0, 1], [-1, 1, 0]], np.eye(n))  # i (x - y).xi
    c, K, _ = gaussian_integral(K + 1j * phase, None, n,
                                NonIntegrableSymbol, module=_MOD,
                                operation="kernel_from_symbol",
                                what="xi-xi block of the symbol")
    return GaussianKernel(n, sym.c * (2 * np.pi) ** -n * c, K)


def _real_skew(N, operation: str) -> np.ndarray:
    """N as a real array, or DimensionMismatch unless it is square, finite
    and real skew-symmetric within 1e-12 max(1, |N|)."""
    N = np.asarray(N, dtype=complex)
    if not (N.ndim == 2 and N.shape[0] == N.shape[1] and np.isfinite(N).all()
            and not N.imag.any()
            and np.linalg.norm(N + N.T) <= 1e-12 * max(1.0, np.linalg.norm(N))):
        raise DimensionMismatch("N must be square, finite and real skew-symmetric",
                                module=_MOD, operation=operation)
    return N.real.copy()


def twisted_kernel(N, eps: float) -> GaussianKernel:
    """Exact kernel of (e^{-(eps/2) |xi - Nx|^2})^w for N real skew-symmetric:

        (2 pi eps)^{-n/2} exp(-|x - y|^2 / (2 eps) + i (x - y).Nx).
    """
    N = _real_skew(N, "twisted_kernel")
    n = N.shape[0]
    if eps <= 0:
        raise NonIntegrableSymbol("eps must be positive",
                                  module=_MOD, operation="twisted_kernel")
    I = np.eye(n)
    Kxy = -I / eps - 1j * N
    K = np.block([[I / eps, Kxy], [Kxy.T, I / eps]]).astype(complex)
    c = (2 * np.pi * eps) ** (-n / 2)
    return GaussianKernel(n, complex(c), K)


def twisted_form_matrix(N) -> np.ndarray:
    """Matrix of |xi - Nx|^2 on R^{2n}: [[N^T N, N], [-N, I]] for N skew."""
    N = np.asarray(N, dtype=float)
    n = N.shape[0]
    return np.block([[N.T @ N, N], [-N, np.eye(n)]])


def diagnostics_PVMN(sym: MehlerSymbol) -> KernelDiagnostics:
    """P, V and the left/right warp matrices of the kernel's real part."""
    bf = block_decompose(sym.M)
    R, L, B = bf.R, bf.L, bf.B
    check_integrable(B, NonIntegrableSymbol, module=_MOD,
                     operation="diagnostics_PVMN", what="xi-xi block of the symbol")
    ReB, ImB = B.real, B.imag
    ReL, ImL = L.real, L.imag
    ReB_inv = np.linalg.inv(ReB)
    P = np.linalg.inv(ReB + ImB @ ReB_inv @ ImB)
    V = R.real - ReL.T @ ReB_inv @ ReL
    Mleft = np.eye(sym.n) - ImL / 2 + ImB @ ReB_inv @ ReL / 2
    Nright = np.eye(sym.n) + ImL / 2 - ImB @ ReB_inv @ ReL / 2
    return KernelDiagnostics(P=P, V=(V + V.T) / 2, Mleft=Mleft, Nright=Nright)


def compose_kernels(k1: GaussianKernel, k2: GaussianKernel) -> GaussianKernel:
    """Exact composition g(x, y) = int g1(x, z) g2(z, y) dz, the
    gaussian_integral over z; the z-z block must have positive-definite real
    part."""
    if k1.n != k2.n:
        raise DimensionMismatch("kernel dimensions differ", module=_MOD,
                                operation="compose_kernels")
    n = k1.n
    K1, K2, Z = k1.K, k2.K, np.zeros((n, n))
    K = np.block([[K1[:n, :n], Z, K1[:n, n:]],
                  [Z, K2[n:, n:], K2[n:, :n]],
                  [K1[n:, :n], K2[:n, n:], K1[n:, n:] + K2[:n, :n]]])
    c, K, _ = gaussian_integral(K, None, n, NonIntegrableComposition, module=_MOD,
                                operation="compose_kernels", what="middle-variable block")
    return GaussianKernel(n, complex(k1.c * k2.c * c), K)


def twisted_sandwich(k: GaussianKernel, N, eps: float) -> GaussianKernel:
    """Kernel of TW o k o TW, TW = (e^{-(eps/2) |xi - Nx|^2})^w, N real skew,
    in covariance form: TW g(x, y) = E_w[exp(i w.Nx) g(x - w, y)] and
    g TW(x, y) = E_w[g(x, y + w) exp(i w.Ny)] for w ~ N(0, eps I), one
    gaussian_integral over (w1, w2) / sqrt(eps) against the standard normal
    density, with block I + eps [[K_xx, -K_xy], [-K_yx, K_yy]]: no 1/eps
    appears, unlike in twisted_kernel, whose entries cancel in composition.
    """
    n = k.n
    sgn = np.repeat([-np.sqrt(eps), np.sqrt(eps)], n)  # x - w1 and y + w2
    KS = k.K * sgn
    phase = 1j * np.sqrt(eps) * np.kron(np.eye(2), N)
    K = np.block([[k.K, KS + phase], [KS.T - phase, sgn[:, None] * KS + np.eye(2 * n)]])
    c, K, _ = gaussian_integral(K, None, 2 * n, NonIntegrableComposition, module=_MOD,
                                operation="twisted_sandwich", what="block I + eps A")
    return GaussianKernel(n, complex(k.c * c * (2 * np.pi) ** -n), K)


def disperse(K, b, D, t: float, error, *, module: str, operation: str, what: str):
    """exp(i t D grad.grad), D real symmetric (even degenerate), on the last n
    coordinates y of exp(-z.Kz/2 + b.z), z = (x, y), as (c, K', b') for the
    result c exp(-z.K'z/2 + b'.z): gaussian_integral from y to its Fourier
    variable eta (block K_yy, named `what`), the multiplier
    exp(-i t D eta.eta), and gaussian_integral back to y."""
    n = D.shape[0]
    r = K.shape[-1] - n
    keep = np.ix_(*[np.r_[:r, r + n:r + 2 * n]] * 2)  # of (x, new, old); old is integrated
    c = (2 * np.pi) ** -n
    for sign, mult, block in ((1j, 0, what), (-1j, 2j * t * D, "transformed " + what)):
        K2 = np.zeros((r + 2 * n, r + 2 * n), dtype=complex)
        K2[keep] = K  # old = y, new = eta; then old = eta, new = y
        K2[r + n:, r + n:] += mult
        K2[r:r + n, r + n:] = K2[r + n:, r:r + n] = sign * np.eye(n)
        pf, K, b = gaussian_integral(K2, np.concatenate([b[:r], np.zeros(n), b[r:]]), n,
                                     error, module=module, operation=operation, what=block)
        c = c * pf
    return c, K, b


def inverse_twisted(N, s, checks: Checks
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R_s, prefactor) of mehler_inverse_twisted at s, a number or an array
    of them (R_s then stacked over s), and exp(2iJ s R_s), for N real skew.

    NN = L^T L for L = [-N, I] and L J L^T = -2N, so by f(AB) = A g(BA) B
    (Higham, Functions of Matrices, SIAM 2008, sec. 1.8) every function of
    F = s J NN = (s J L^T) L is one of L s J L^T = -2sN.  For N = U diag(w) V^T
    and x = 2sw (artanh(x)/x = 1 at x = 0, so R_s = NN at s = 0):

        R_s = (sJ)^{-1} arctan(F) = L^T V diag(artanh(x)/x) V^T L,
        sqrt(det cos(s J R_s)) = det(I + F^2)^{-1/4} = prod (1 - x^2)^{-1/4},
        exp(2iJ s R_s) = (I + iF)(I - iF)^{-1} = I + 2is J L^T (I + 2isN)^{-1} L.

    Checks: 0 <= s and s |NN| < 2^{-1/2} (SeriesRegimeViolated); |NN|_2 =
    1 + max(w)^2, so the regime keeps x <= s (1 + w^2) < 2^{-1/2} and the
    prefactor real.  One s gives exactly its entry of a (flattened) stack.
    """
    op = "mehler_inverse_twisted"
    n = N.shape[0]
    L = np.hstack([-N, np.eye(n)])
    _, w, Vt = np.linalg.svd(N)
    nrm = 1 + w.max(initial=0.0) ** 2
    s = np.asarray(s, dtype=float)
    checks(s < 0, SeriesRegimeViolated, "s must be nonnegative", module=_MOD,
           operation=op)
    checks(s * nrm >= 2 ** -0.5, SeriesRegimeViolated,
           lambda i: f"s |NN| = {s.flat[i] * nrm:.4f} >= 2^(-1/2)",
           module=_MOD, operation=op)
    shape = s.shape
    s = checks.clean(s, 0.0).reshape(-1, 1, 1)
    x = 2 * s[:, 0] * w
    VL = Vt @ L
    ratio = np.divide(np.arctanh(x), x, out=np.ones_like(x), where=x > 0)
    Rs = VL.T @ (ratio[..., None] * VL)
    X = np.linalg.solve(np.eye(n) + 2j * s * N, L)
    cayley = np.eye(2 * n) + 2j * s * (np.vstack([np.eye(n), -N]) @ X)
    out = (Rs + Rs.mT) / 2, np.prod((1 - x) * (1 + x), axis=-1) ** -0.25, cayley
    return tuple(a.reshape(shape + a.shape[1:]) for a in out)


def mehler_inverse_twisted(N, s: float) -> tuple[np.ndarray, float]:
    """Write the twisted diffusion as an evolution operator:

        (e^{-s |xi - Nx|^2})^w = sqrt(det cos(s J R_s)) exp(-s r_s^w),

    returning (R_s, prefactor) with R_s = (sJ)^{-1} arctan(s J NN), in closed
    form (see inverse_twisted), at s or at every s of an array.  N must be
    real skew-symmetric (DimensionMismatch otherwise), and s |NN| < 2^{-1/2}
    (SeriesRegimeViolated otherwise).
    """
    N = _real_skew(N, "mehler_inverse_twisted")
    Rs, pf, _ = inverse_twisted(N, s, Checks())
    return Rs, pf[()]


# --- analytic actions of phase / transport / dispersion factors ------------
# These close the Gaussian kernel class under the unitary-side factors of the
# main decomposition without ever forming a distributional kernel.

def kernel_left_phase(k: GaussianKernel, theta) -> GaussianKernel:
    """Left-multiply by the multiplication operator exp(i theta x.x / 2)."""
    theta = np.asarray(theta, dtype=float)
    K = k.K.copy()
    n = k.n
    K[:n, :n] = K[:n, :n] - 1j * (theta + theta.T) / 2
    return GaussianKernel(n, k.c, K)


def kernel_right_phase(k: GaussianKernel, theta) -> GaussianKernel:
    """Right-compose with the multiplication operator exp(i theta y.y / 2)."""
    theta = np.asarray(theta, dtype=float)
    K = k.K.copy()
    n = k.n
    K[n:, n:] = K[n:, n:] - 1j * (theta + theta.T) / 2
    return GaussianKernel(n, k.c, K)


def kernel_right_transport(k: GaussianKernel, M, t: float) -> GaussianKernel:
    """Right-compose with the transport flow u -> u(e^{tM} .)."""
    M = np.asarray(M, dtype=float)
    n = k.n
    T = sla.expm(-t * M)
    E = np.block([[np.eye(n), np.zeros((n, n))], [np.zeros((n, n)), T]])
    K = E.T @ k.K @ E
    c = k.c * np.exp(-t * np.trace(M))
    return GaussianKernel(n, complex(c), K)


def kernel_right_dispersion(k: GaussianKernel, D, t: float) -> GaussianKernel:
    """Right-compose with exp(i t D grad.grad), D real symmetric (even zero):
    disperse on the y-slice of the kernel, whose K_yy must be integrable."""
    c, K, _ = disperse(k.K, np.zeros(2 * k.n), np.asarray(D, dtype=float), t,
                       NonIntegrableSymbol, module=_MOD,
                       operation="kernel_right_dispersion",
                       what="y-y block of the kernel")
    return GaussianKernel(k.n, complex(k.c * c), K)

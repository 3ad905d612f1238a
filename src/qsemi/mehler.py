"""Gaussian symbols and kernels for quadratic semigroups.

Symbols: exp(-t q^w) acts, when det cos(tJQ) != 0, as c (e^{-m})^w with
c = det cos(tJQ)^{-1/2} (on the branch continuous from 1 at t = 0, a
Pfaffian; see matfun.cos_sin_sqrt_det) and m the form of J^{-1} tan(tJQ).

Kernels: whenever the xi-xi block of m has positive-definite real part, the
operator (e^{-m})^w is an integral transform with kernel

    g(x, y) = (2 pi)^{-n/2} det(B)^{-1/2}
              exp(-k((x+y)/2)/2 - B^{-1}(x-y).(x-y)/2
                  - i (x-y).B^{-1} L (x+y)/2),

with k of matrix R - L^T B^{-1} L.  Kernels are stored as a prefactor plus a
complex symmetric matrix on the stacked variable (x, y), so composition,
application to Gaussian states, and sup-norm extraction are plain linear
algebra.  Square roots of determinants of complex symmetric matrices with
positive-definite real part follow the branch that is positive on real
positive-definite matrices (eigenvalue-wise principal square root).

Sweeps: mehler_symbol and kernel_from_symbol take a whole grid of times at
once and return symbols and kernels stacked over it.  The grid is one stacked
computation: one eigvals(JQ) decides the conjugate points for every t, one
expm call gives cos(tJQ) and sin(tJQ) for every t, and the Pfaffian, the tan
solve, the kernel blocks and every positivity check run on the stack.
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
    arctan,
    cos_sin_sqrt_det,
    first_index,
    spectral_norm,
)
from .quadform import QuadraticForm, block_decompose, standard_J

_MOD = "mehler"


@dataclass
class MehlerSymbol:
    """Symbol data (c, M, t): exp(-t q^w) = c (e^{-m})^w with m(X) = MX.X.

    Over a grid of T times, c, M and t are stacked: shapes (T,), (T, 2n, 2n)
    and (T,).
    """
    n: int
    c: complex
    M: np.ndarray
    t: float


@dataclass
class GaussianKernel:
    """Kernel g(x, y) = c * exp(-K(x,y).(x,y)/2) on the stacked variable.

    Kernels at a grid of T times are stacked: c of shape (T,), K of shape
    (T, 2n, 2n); evaluation by calling takes a single kernel.
    """
    n: int
    c: complex
    K: np.ndarray

    def __call__(self, x, y) -> complex:
        z = np.concatenate([np.atleast_1d(x), np.atleast_1d(y)]).astype(complex)
        return self.c * np.exp(-0.5 * z @ self.K @ z)


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


def sqrt_det_pd_mask(A) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(det A) for complex symmetric A with positive-definite real part,
    or for each matrix of a stack (..., m, m), and the mask of the matrices
    with an eigenvalue of nonpositive real part, whose root is off the branch.

    Every eigenvalue has positive real part, so the product of principal
    square roots is the continuous deformation of the positive branch on
    real positive-definite matrices.
    """
    w = np.linalg.eigvals(np.asarray(A, dtype=complex))
    return np.exp(0.5 * np.sum(np.log(w), axis=-1))[()], (w.real <= 0).any(axis=-1)


def sqrt_det_pd(A) -> complex:
    """The root of sqrt_det_pd_mask; NonIntegrableSymbol on a masked matrix."""
    root, bad = sqrt_det_pd_mask(A)
    i = first_index(bad)
    if i is not None:
        raise NonIntegrableSymbol(
            "matrix has an eigenvalue with nonpositive real part",
            module=_MOD, operation="sqrt_det_pd", index=i)
    return root


#: positive-definiteness is judged relative to the block scale so that
#: legitimately tiny smoothing blocks (order t^(2 k0 + 1)) are not rejected,
#: while exact zeros (graph condition failing) always are
_PD_RELATIVE = 1e-12


def not_integrable(W) -> tuple[np.ndarray, np.ndarray]:
    """The one integrability decision: mask of the blocks W (..., m, m) whose
    int exp(-Wz.z/2) dz is taken to diverge, lambda_min(H) <= _PD_RELATIVE
    |H|_2 for H = sym Re W, and that lambda_min."""
    W = np.asarray(W)
    H = (W.real + W.real.mT) / 2
    lam = np.linalg.eigvalsh(H)[..., 0]
    return lam <= _PD_RELATIVE * np.linalg.norm(H, 2, axis=(-2, -1)), lam


def check_integrable(W, error, *, module: str, operation: str, what: str) -> None:
    """Raise error from module.operation at the first block of W, named
    `what`, that not_integrable flags."""
    bad, lam = not_integrable(W)
    i = first_index(bad)
    if i is not None:
        raise error(f"{what} must have positive-definite real part "
                    f"(lambda_min = {lam.flat[i]:.3e})", module=module,
                    operation=operation, index=i)


def mehler_symbol(q: QuadraticForm, t, *,
                  tol: float = DEFAULT_TOL) -> MehlerSymbol:
    """Symbol of exp(-t q^w): prefactor 1/sqrt(det cos(tJQ)) and form of
    J^{-1} tan(tJQ), on the determinant branch continuous from t = 0.

    t may be an array of times: c, M and t are then stacked over it.  A
    failure names the first failing t, at QsemiError.index.
    """
    t = np.asarray(t, dtype=float)
    i = first_index(t < 0)
    if i is not None:
        raise DegenerateTime("t must be nonnegative", module=_MOD,
                             operation="mehler_symbol", index=i)
    try:
        C, S, root = cos_sin_sqrt_det(q.Q, t, tol=tol)
    except ConjugatePointOnPath as exc:
        raise DegenerateTime(str(exc), module=_MOD, operation="mehler_symbol",
                             index=exc.index) from exc
    J = standard_J(q.n)
    M = np.linalg.solve(J, np.linalg.solve(C, S))
    M = (M + M.mT) / 2
    M[t == 0] = 0  # the zero symbol, without the signed zeros of the solve
    return MehlerSymbol(q.n, 1.0 / root, M, t[()])


def kernel_from_symbol(sym: MehlerSymbol) -> GaussianKernel:
    """Gaussian kernel of sym.c * (e^{-m})^w; requires Re B positive-definite.

    Raises NonIntegrableSymbol exactly when the graph condition fails for the
    underlying form (degenerate Re B), in which case the operator has no
    locally integrable Gaussian kernel.  A symbol stacked over t gives the
    kernels stacked over t.
    """
    n = sym.n
    bf = block_decompose(sym.M)
    R, L, B = bf.R, bf.L, bf.B
    check_integrable(B, NonIntegrableSymbol, module=_MOD,
                     operation="kernel_from_symbol", what="xi-xi block of the symbol")
    Binv = np.linalg.inv(B)
    Kk = R - L.mT @ Binv @ L
    I = np.eye(n)
    E_mid = np.hstack([I, I]) / 2.0      # (x, y) -> (x + y)/2
    E_diff = np.hstack([I, -I])          # (x, y) -> x - y
    K = E_mid.T @ Kk @ E_mid + E_diff.T @ Binv @ E_diff
    cross = E_diff.T @ (Binv @ L) @ E_mid
    K = K + 1j * (cross + cross.mT)
    c = sym.c * (2 * np.pi) ** (-n / 2) / sqrt_det_pd(B)
    return GaussianKernel(n, c, K)


def twisted_kernel(N, eps: float) -> GaussianKernel:
    """Exact kernel of (e^{-(eps/2) |xi - Nx|^2})^w for N real skew-symmetric:

        (2 pi eps)^{-n/2} exp(-|x - y|^2 / (2 eps) + i (x - y).Nx).
    """
    N = np.asarray(N, dtype=float)
    n = N.shape[0]
    if N.shape != (n, n) or np.linalg.norm(N + N.T) > 1e-12 * max(1.0, np.linalg.norm(N)):
        raise DimensionMismatch("N must be real skew-symmetric",
                                module=_MOD, operation="twisted_kernel")
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
    """Exact composition g(x, y) = int g1(x, z) g2(z, y) dz.

    The z-quadratic block must have positive-definite real part; the result
    follows by completing the square (Schur complement) with the deformation
    branch of the determinant square root.
    """
    if k1.n != k2.n:
        raise DimensionMismatch("kernel dimensions differ", module=_MOD,
                                operation="compose_kernels")
    n = k1.n
    P1, Q1, R1 = k1.K[:n, :n], k1.K[:n, n:], k1.K[n:, n:]
    P2, Q2, R2 = k2.K[:n, :n], k2.K[:n, n:], k2.K[n:, n:]
    W = R1 + P2
    check_integrable(W, NonIntegrableComposition, module=_MOD,
                     operation="compose_kernels", what="middle-variable block")
    Winv = np.linalg.inv(W)
    C = np.hstack([Q1.T, Q2])  # linear coefficient of z as a map of (x, y)
    Z = np.zeros((n, n))
    K = np.block([[P1, Z], [Z, R2]]) - C.T @ Winv @ C
    c = k1.c * k2.c * (2 * np.pi) ** (n / 2) / sqrt_det_pd(W)
    return GaussianKernel(n, complex(c), K)


def inverse_twisted(N, s, tol: float, checks: Checks
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R_s, prefactor) of mehler_inverse_twisted at s, a number or an array
    of them (R_s then stacked over s), and exp(2iJ s R_s).

    R_s = (sJ)^{-1} arctan(F) for F = s J NN, through the stacked log
    (matfun.arctan keeps the relative accuracy of a small F), and R_s = NN at
    s = 0.  As s J R_s = arctan(F) and cos(arctan F) = (I + F^2)^{-1/2}, the
    prefactor sqrt(det cos(s J R_s)) on the branch continuous from s = 0 is
    det(I + F^2)^{-1/4}: the eigenvalues of F^2 are -(s omega)^2 in
    (-1/2, 0] for the frequencies omega of J NN (NN >= 0), so I + F^2 stays
    invertible along the path.  exp(2iJ s R_s) = exp(2i arctan F) is the
    Cayley transform (I + iF)(I - iF)^{-1}, which matfun.arctan forms on the
    way, so it needs no expm.  Checks: 0 <= s and s |NN| < 2^{-1/2}
    (SeriesRegimeViolated), then a real prefactor.
    """
    op = "mehler_inverse_twisted"
    NN = twisted_form_matrix(N)
    J = standard_J(NN.shape[0] // 2)
    s = np.asarray(s, dtype=float)
    nrm = spectral_norm(NN)
    checks(s < 0, SeriesRegimeViolated, "s must be nonnegative", module=_MOD,
           operation=op)
    checks(s * nrm >= 2 ** -0.5, SeriesRegimeViolated,
           lambda i: f"s |NN| = {s.flat[i] * nrm:.4f} >= 2^(-1/2)",
           module=_MOD, operation=op)
    s = checks.clean(s, 0.0)
    F = s[..., None, None] * (J @ NN)
    atan, cayley = arctan(F, tol, checks)
    Rs = J.T @ atan.real / np.where(s > 0, s, 1.0)[..., None, None]
    Rs = np.where((s > 0)[..., None, None], (Rs + Rs.mT) / 2, NN)
    pf = np.linalg.det(np.eye(NN.shape[0]) + F @ F).astype(complex) ** -0.25
    checks(np.abs(pf.imag) > 1e-10 * np.abs(pf), SeriesRegimeViolated,
           lambda i: f"prefactor not real: {pf.flat[i]}", module=_MOD, operation=op)
    return Rs, pf.real, cayley


def mehler_inverse_twisted(N, s: float, *, tol: float = DEFAULT_TOL,
                           ) -> tuple[np.ndarray, float]:
    """Write the twisted diffusion as an evolution operator:

        (e^{-s |xi - Nx|^2})^w = sqrt(det cos(s J R_s)) exp(-s r_s^w),

    returning (R_s, prefactor) with R_s = (sJ)^{-1} arctan(s J NN), in closed
    form (see inverse_twisted), at s or at every s of an array.  Requires
    s |NN| < 2^{-1/2} (SeriesRegimeViolated otherwise).
    """
    Rs, pf, _ = inverse_twisted(N, s, tol, Checks())
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
    """Right-compose with exp(i t D grad.grad), D real symmetric.

    The y-slice of the kernel is a Gaussian with positive-definite real part,
    on which the Fourier multiplier exp(-i t D xi.xi) acts in closed form;
    degenerate (even zero) D is fine.
    """
    D = np.asarray(D, dtype=float)
    n = k.n
    A = k.K[n:, n:]
    Kyx = k.K[n:, :n]
    check_integrable(A, NonIntegrableSymbol, module=_MOD,
                     operation="kernel_right_dispersion",
                     what="y-y block of the kernel")
    Ainv = np.linalg.inv(A)
    Atil = Ainv + 2j * t * D
    SA = np.linalg.inv(Atil)
    mult = 1.0 / (sqrt_det_pd(A) * sqrt_det_pd(Atil))
    Mmid = Ainv - Ainv @ SA @ Ainv
    Kxx = k.K[:n, :n] - Kyx.T @ Mmid @ Kyx
    Kyx_new = SA @ Ainv @ Kyx
    K = np.block([[Kxx, Kyx_new.T], [Kyx_new, SA]])
    return GaussianKernel(n, complex(k.c * mult), K)

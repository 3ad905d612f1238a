"""Dense complex matrix functions: exp, principal log, cos/tan/arctan,
Pfaffians and the continuous branch of sqrt(det cos), rank-revealing null
spaces, PSD tests.

All routines are dense and target matrices of size at most ~40x40; inputs are
validated for finiteness and shape, never mutated.  cos/sin at a grid of
times, the Pfaffian and sqrt(det cos) also take stacks, one matrix per entry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    BranchCut,
    ConjugatePointOnPath,
    DegenerateTime,
    NonSquare,
    SingularCos,
    SpectralRadiusTooLarge,
)

DEFAULT_TOL = 1e-9

_MOD = "matfun"


def as_square(A, *, operation: str = "") -> np.ndarray:
    """Validate and return a finite square complex matrix (copy-free view)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquare(f"expected square matrix, got shape {A.shape}",
                        module=_MOD, operation=operation)
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise NonSquare("matrix has non-finite entries",
                        module=_MOD, operation=operation)
    return A


def mat_exp(A) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade via scipy)."""
    A = as_square(A, operation="mat_exp")
    return sla.expm(A)


def mat_log_principal(A, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal matrix logarithm.

    Raises BranchCut when an eigenvalue sits on (or numerically hugs) the
    closed negative real half-line, where the principal branch is ill-defined.
    """
    A = as_square(A, operation="mat_log_principal")
    w = np.linalg.eigvals(A)
    scale = max(np.abs(w).max(), 1.0)
    for lam in w:
        if abs(lam) < tol * scale:
            raise BranchCut(f"eigenvalue {lam} too close to 0",
                            module=_MOD, operation="mat_log_principal")
        if lam.real < 0 and abs(lam.imag) < tol * abs(lam):
            raise BranchCut(f"eigenvalue {lam} on the negative real axis",
                            module=_MOD, operation="mat_log_principal")
    L = sla.logm(A)
    return np.asarray(L, dtype=complex)


def first_index(bad) -> int | None:
    """Position of the first True of a mask (flattened), or None."""
    bad = np.ravel(bad)
    return int(bad.argmax()) if bad.any() else None


def cos_sin(A, t) -> tuple[np.ndarray, np.ndarray]:
    """cos(tA) = (exp(itA) + exp(-itA)) / 2 and sin(tA) = (exp(itA) -
    exp(-itA)) / 2i, from one expm call on the stack of +-itA.

    t is a time or an array of times; the results have shape t.shape + A.shape.
    """
    tA = np.multiply.outer(np.asarray(t, dtype=float), A)
    E = sla.expm(np.stack([1j * tA, -1j * tA]))
    return (E[0] + E[1]) / 2, (E[0] - E[1]) / 2j


def mat_cos(A) -> np.ndarray:
    """cos(A) = (exp(iA) + exp(-iA)) / 2."""
    return cos_sin(as_square(A, operation="mat_cos"), 1.0)[0]


def mat_sin(A) -> np.ndarray:
    """sin(A) = (exp(iA) - exp(-iA)) / 2i."""
    return cos_sin(as_square(A, operation="mat_sin"), 1.0)[1]


def mat_tan(A, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """tan(A) = cos(A)^{-1} sin(A), computed by a solve, not an inverse.

    cos and sin of the same matrix commute, so left and right quotients agree.
    """
    C, S = cos_sin(as_square(A, operation="mat_tan"), 1.0)
    d = np.linalg.det(C)
    if abs(d) < tol:
        raise SingularCos(f"|det cos(A)| = {abs(d):.3e} below tolerance",
                          module=_MOD, operation="mat_tan")
    return np.linalg.solve(C, S)


def mat_arctan(A, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Matrix arctangent on the spectral-radius < 1 regime.

    Evaluated as (2i)^{-1} log((I + iA)(I - iA)^{-1}) with the principal log,
    which matches the power series on its disc of convergence and tolerates
    defective (e.g. nilpotent) arguments.
    """
    A = as_square(A, operation="mat_arctan")
    rho = np.abs(np.linalg.eigvals(A)).max() if A.size else 0.0
    if rho >= 1.0 - tol:
        raise SpectralRadiusTooLarge(
            f"spectral radius {rho:.6f} not strictly below 1",
            module=_MOD, operation="mat_arctan")
    n = A.shape[0]
    I = np.eye(n)
    Z = np.linalg.solve((I - 1j * A).T, (I + 1j * A).T).T
    return mat_log_principal(Z, tol=tol) / 2j


@dataclass
class BranchTrackedScalar:
    """The branch of s -> sqrt(det cos(s J Q)) continuous from 1 at s = 0,
    evaluated at s = path_parameter (value and path_parameter are arrays
    when path_parameter is a grid of times).

    steps_used is always 0: the branch is a closed form, not a path walk.  The
    field is kept so that callers reading the step count keep working.
    """
    value: complex
    path_parameter: float
    steps_used: int


def pfaffian(A) -> complex:
    """Pfaffian of a skew-symmetric matrix of even size, or of each matrix of
    a stack (..., m, m).

    Skew Parlett-Reid elimination with pivoting (Wimmer, Algorithm 923, ACM
    TOMS 38, 2012): each step pivots the largest entry of the next column
    into place and takes the Schur complement of the leading 2 x 2 block.
    """
    A = np.array(A, dtype=complex)
    m = A.shape[-1]
    batch = A.shape[:-2]
    A = A.reshape(-1, m, m)
    r = np.arange(len(A))
    pf = np.ones(len(A), dtype=complex)
    zero = np.zeros(len(A), dtype=bool)
    for k in range(0, m - 2, 2):
        p = k + 1 + np.abs(A[:, k + 1:, k]).argmax(axis=1)
        A[r, k + 1], A[r, p] = A[r, p], A[r, k + 1]
        A[r, :, k + 1], A[r, :, p] = A[r, :, p], A[r, :, k + 1]
        pf = np.where(p != k + 1, -pf, pf)
        a = A[:, k, k + 1]
        zero |= a == 0
        a = np.where(zero, 1, a)  # a zero pivot ends that entry at Pf = 0
        pf *= a
        u, v = A[:, k, k + 2:] / a[:, None], A[:, k + 1, k + 2:]
        A[:, k + 2:, k + 2:] += v[:, :, None] * u[:, None, :] - u[:, :, None] * v[:, None, :]
    pf *= A[:, m - 2, m - 1]  # the last 2 x 2 block leaves no pivot to choose
    return np.where(zero, 0j, pf).reshape(batch)[()]


def cos_sin_sqrt_det(Q, t, *, tol: float = DEFAULT_TOL
                     ) -> tuple[np.ndarray, np.ndarray, complex]:
    """cos(tJQ), sin(tJQ) and sqrt(det cos(tJQ)) on the branch continuous in
    t from 1 at t = 0, for a time t or at every time of an array t.

    J cos(tJQ) is skew-symmetric (cos(tJQ) is an even function of the
    Hamiltonian matrix tJQ), so Pf(J cos(tJQ)) / Pf(J) squares to
    det cos(tJQ); being a polynomial in the entries that equals 1 at t = 0,
    it is that branch (Hormander, Math. Z. 219, 1995).  cos vanishes only on
    the real axis, so det cos(sJQ) has a zero for some s in (0, t] exactly
    when JQ has a real eigenvalue lambda with t |lambda| >= pi/2; that is
    reported as ConjugatePointOnPath.  One eigvals(JQ) serves every t, and
    one expm call gives cos and sin at every t.
    """
    from .quadform import standard_J  # local import to avoid a cycle

    op = "sqrt_det_cos_tracked"
    Q = as_square(Q, operation=op)
    n = Q.shape[0] // 2
    if Q.shape[0] != 2 * n:
        raise NonSquare("Q must be 2n x 2n", module=_MOD, operation=op)
    t = np.asarray(t, dtype=float)
    i = first_index(t < 0)
    if i is not None:
        raise ConjugatePointOnPath("path parameter must be nonnegative",
                                   module=_MOD, operation=op, index=i)
    J = standard_J(n)
    JQ = J @ Q
    lam = np.linalg.eigvals(JQ)
    real = np.abs(lam.imag) <= tol * np.abs(lam)
    # float products are monotone, so t * max|lambda| >= pi/2 exactly when
    # t |lambda| >= pi/2 for some real eigenvalue lambda
    i = first_index(t * np.abs(lam[real]).max(initial=0.0) >= np.pi / 2)
    if i is not None:
        ti = t.flat[i]
        hit = real & (ti * np.abs(lam) >= np.pi / 2)
        raise ConjugatePointOnPath(
            f"det cos vanishes on the path: real eigenvalue {lam[hit][0].real:.6g} "
            f"of JQ at t = {ti:.6g}", module=_MOD, operation=op, index=i)
    with np.errstate(over="ignore", invalid="ignore"):
        C, S = cos_sin(JQ, t)
    i = first_index(~np.isfinite(C).all(axis=(-2, -1)))
    if i is not None:
        raise DegenerateTime(f"cos(tJQ) overflows at t = {t.flat[i]:.6g}",
                             module=_MOD, operation=op, index=i)
    JC = J @ C
    # Pf(J) = (-1)^(n(n-1)/2) for J = [[0, I], [-I, 0]]
    return C, S, pfaffian((JC - JC.mT) / 2) / (-1) ** (n * (n - 1) // 2)


def sqrt_det_cos_tracked(Q, t, *,
                         tol: float = DEFAULT_TOL) -> BranchTrackedScalar:
    """sqrt(det cos(t J Q)) on the branch continuous in t from 1 at t = 0;
    see cos_sin_sqrt_det."""
    value = cos_sin_sqrt_det(Q, t, tol=tol)[2]
    return BranchTrackedScalar(value, np.asarray(t, dtype=float)[()], 0)


def null_space(A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of A.

    Singular values below tol * sigma_max are treated as zero (absolute tol
    when sigma_max is itself below tol).  May return a (cols, 0) matrix.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise NonSquare("expected a 2-d array", module=_MOD, operation="null_space")
    if A.size == 0:
        return np.eye(A.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(A)
    smax = s[0] if s.size else 0.0
    thresh = tol * smax if smax >= tol else tol
    rank = int((s >= thresh).sum())
    basis = vh[rank:].conj().T
    if np.abs(basis.imag).max(initial=0.0) == 0.0:
        basis = basis.real.astype(complex)
    return basis


def psd_check(H, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """(is_psd, lambda_min) for the Hermitian symmetrization of H."""
    H = as_square(H, operation="psd_check")
    Hs = (H + H.conj().T) / 2
    lam_min = float(np.linalg.eigvalsh(Hs).min()) if H.size else 0.0
    return lam_min >= -tol, lam_min


def spectral_norm(A) -> float:
    """Operator 2-norm."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))

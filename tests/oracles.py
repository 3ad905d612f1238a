"""Reference computations that the tests compare the library against, and
that no command or pipeline stage of the library needs.

    from oracles import conjugate_by_linear, mp_expm, twisted_kernel

pytest puts this directory on sys.path, so a test module imports it by name.
The mpmath references return mpmath matrices: a caller keeps working at its
precision and rounds to doubles (to_complex) as its own last step.
"""
import mpmath
import numpy as np

from qsemi.mehler import GaussianKernel
from qsemi.quadform import QuadraticForm


def conjugate_by_linear(q: QuadraticForm, T) -> QuadraticForm:
    """The form of q(TX), of matrix T^T Q T, validated as any QuadraticForm
    (the library's one congruence, quadform._congruence_unchecked, is for
    the shear of select_gamma and skips that)."""
    T = np.asarray(T, dtype=float)
    return QuadraticForm(q.n, T.T @ q.Q @ T, q.tol)


def twisted_kernel(N, eps: float) -> GaussianKernel:
    """Exact kernel of (e^{-(eps/2) |xi - Nx|^2})^w for N real skew-symmetric
    and eps > 0:

        (2 pi eps)^{-n/2} exp(-|x - y|^2 / (2 eps) + i (x - y).Nx).

    Its entries are of order 1/eps, so it serves moderate eps; the library
    applies the twisted factor in covariance form (mehler.twisted_sandwich).
    """
    N = np.asarray(N, dtype=float)
    n = N.shape[0]
    I = np.eye(n)
    Kxy = -I / eps - 1j * N
    K = np.block([[I / eps, Kxy], [Kxy.T, I / eps]]).astype(complex)
    return GaussianKernel(n, complex((2 * np.pi * eps) ** (-n / 2)), K)


def _mp(X) -> mpmath.matrix:
    """X as an mpmath matrix: a numpy array's doubles are taken exactly."""
    return X if isinstance(X, mpmath.matrix) else mpmath.matrix(np.asarray(X).tolist())


def mp_expm(X, t, dps: int) -> mpmath.matrix:
    """exp(tX) at dps digits, with tX formed at dps digits."""
    with mpmath.workdps(dps):
        return mpmath.expm(mpmath.mpf(t) * _mp(X))


def mp_logm(A, dps: int) -> mpmath.matrix:
    """log A at dps digits.  mpmath's branch is the principal one only away
    from the negative real axis, so a caller keeps A's eigenvalues there."""
    with mpmath.workdps(dps):
        return mpmath.logm(_mp(A))


def to_complex(M: mpmath.matrix) -> np.ndarray:
    """An mpmath matrix rounded to complex doubles."""
    return np.array(M.tolist(), dtype=complex)

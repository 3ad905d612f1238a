"""Reference computations that the tests compare the library against, and
that no command or pipeline stage of the library needs.

    from oracles import conjugate_by_linear, twisted_kernel

pytest puts this directory on sys.path, so a test module imports it by name.
"""
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

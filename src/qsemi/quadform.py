"""Quadratic forms on phase space R^{2n}: the symplectic matrix J, Hamilton
maps, the (r, L, b) block convention, and conjugation by linear changes of
variables.

Conventions used throughout the package:
  * a form q is stored as the unique complex symmetric Q with q(X) = QX.X
    for X = (x, xi) in R^{2n};
  * the block split of a symbol m is m(x, xi) = r(x)/2 + Lx.xi + b(xi)/2
    with R, B symmetric, so the 2n x 2n matrix of m is
    [[R/2, L^T/2], [L/2, B/2]].
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotPSDWithinTol, SingularTransform
from .matfun import DEFAULT_TOL, psd_check

_MOD = "quadform"

_SYM_TOL = 1e-12


@functools.cache
def standard_J(n: int) -> np.ndarray:
    """Matrix of the standard symplectic form: [[0, I], [-I, 0]].

    Built once per n and shared, so it is read-only.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1", module=_MOD, operation="standard_J")
    Z = np.zeros((n, n))
    I = np.eye(n)
    J = np.block([[Z, I], [-I, Z]])
    J.flags.writeable = False
    return J


@dataclass
class QuadraticForm:
    """Accretive quadratic form q(X) = QX.X with Q complex symmetric 2n x 2n.

    Q is symmetrized on construction (with a warning if the asymmetry exceeds
    1e-12 relative) and Re Q is required to be positive semidefinite.
    """
    n: int
    Q: np.ndarray
    tol: float = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=complex)
        if Q.ndim != 2 or Q.shape != (2 * self.n, 2 * self.n):
            raise DimensionMismatch(
                f"Q must be {2*self.n}x{2*self.n}, got {Q.shape}",
                module=_MOD, operation="QuadraticForm")
        if not np.all(np.isfinite(Q.real)) or not np.all(np.isfinite(Q.imag)):
            raise DimensionMismatch("Q has non-finite entries",
                                    module=_MOD, operation="QuadraticForm")
        scale = max(np.linalg.norm(Q), 1.0)
        asym = np.linalg.norm(Q - Q.T)
        if asym > _SYM_TOL * scale:
            warnings.warn(
                f"symmetrizing Q: asymmetry {asym:.3e} exceeds {_SYM_TOL:.0e} "
                "relative; Weyl symbols only see the symmetric part",
                stacklevel=2)
        Q = (Q + Q.T) / 2
        ok, lam = psd_check(Q.real, tol=self.tol * scale)
        if not ok:
            raise NotPSDWithinTol(
                f"Re Q must be positive semidefinite (lambda_min = {lam:.3e})",
                module=_MOD, operation="QuadraticForm")
        self.Q = Q


def hamilton_map(q: QuadraticForm) -> np.ndarray:
    """F = JQ."""
    return standard_J(q.n) @ q.Q


def evaluate(q: QuadraticForm, X) -> complex:
    """q(X) = QX.X (bilinear, no conjugation)."""
    X = np.asarray(X, dtype=complex).reshape(-1)
    if X.shape[0] != 2 * q.n:
        raise DimensionMismatch(
            f"X must have length {2*q.n}, got {X.shape[0]}",
            module=_MOD, operation="evaluate")
    return complex(X @ q.Q @ X)


def conjugate_by_linear(q: QuadraticForm, T, *, tol: float = DEFAULT_TOL) -> QuadraticForm:
    """Form of q(TX), i.e. matrix T^T Q T; T must be a real invertible 2n x 2n."""
    T = np.asarray(T, dtype=float)
    if T.shape != (2 * q.n, 2 * q.n):
        raise DimensionMismatch(f"T must be {2*q.n}x{2*q.n}, got {T.shape}",
                                module=_MOD, operation="conjugate_by_linear")
    if abs(np.linalg.det(T)) < tol:
        raise SingularTransform("T is numerically singular",
                                module=_MOD, operation="conjugate_by_linear")
    return QuadraticForm(q.n, T.T @ q.Q @ T, q.tol)


def shear_transform(Gsym) -> np.ndarray:
    """Phase-space shear (x, xi) -> (x, xi + Gsym x) as a 2n x 2n matrix.

    This is the linear flow conjugating multiplication by exp(i Gx.x / 2);
    it is symplectic for any symmetric Gsym.
    """
    Gsym = np.asarray(Gsym, dtype=float)
    n = Gsym.shape[0]
    Z = np.zeros((n, n))
    I = np.eye(n)
    return np.block([[I, Z], [Gsym, I]])


@dataclass
class BlockForm:
    """Blocks (R, L, B) of a symbol under m(x,xi) = r(x)/2 + Lx.xi + b(xi)/2."""
    R: np.ndarray
    L: np.ndarray
    B: np.ndarray


def block_decompose(m) -> BlockForm:
    """Extract (R, L, B) from a 2n x 2n complex symmetric symbol matrix, or
    from each matrix of a stack (..., 2n, 2n)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2 != 0:
        raise DimensionMismatch(f"expected 2n x 2n symmetric, got {m.shape}",
                                module=_MOD, operation="block_decompose")
    n = m.shape[-1] // 2
    return BlockForm(R=2 * m[..., :n, :n], L=2 * m[..., n:, :n], B=2 * m[..., n:, n:])


# --- embeddings of n x n blocks into 2n x 2n form matrices -----------------
# Used by the decomposition: forms supported on x.x, x.xi and xi.xi only.
# Each also embeds every block of a stack (..., n, n).

def embed_xx(W) -> np.ndarray:
    """Matrix of the form (W x).x, W symmetric n x n."""
    W = np.asarray(W, dtype=complex)
    Z = np.zeros_like(W)
    return np.block([[W, Z], [Z, Z]])


def embed_xixi(D) -> np.ndarray:
    """Matrix of the form (D xi).xi, D symmetric n x n."""
    D = np.asarray(D, dtype=complex)
    Z = np.zeros_like(D)
    return np.block([[Z, Z], [Z, D]])


def embed_cross(M) -> np.ndarray:
    """Matrix of the form (M x).xi for an arbitrary n x n M."""
    M = np.asarray(M, dtype=complex)
    Z = np.zeros_like(M)
    return np.block([[Z, M.mT / 2], [M / 2, Z]])

"""Quadratic forms on phase space R^{2n}: the symplectic matrix J, Hamilton
maps, the (r, L, b) block convention, phase-space shears and the form of q
after one.

Conventions used throughout the package:
  * a form q is stored as the unique complex symmetric Q with q(X) = QX.X
    for X = (x, xi) in R^{2n};
  * the block split of a symbol m is m(x, xi) = r(x)/2 + Lx.xi + b(xi)/2
    with R, B symmetric, so the 2n x 2n matrix of m is
    [[R/2, L^T/2], [L/2, B/2]].
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidTolerance, NotPSDWithinTol
from .matfun import DEFAULT_TOL, frobenius, relative_distance, shared_constant

_MOD = "quadform"

_SYM_TOL = 1e-12


@shared_constant
def standard_J(n: int) -> np.ndarray:
    """Matrix of the standard symplectic form: [[0, I], [-I, 0]], shared
    read-only."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1", module=_MOD, operation="standard_J")
    Z = np.zeros((n, n))
    I = np.eye(n)
    return np.block([[Z, I], [-I, Z]])


@dataclass
class QuadraticForm:
    """Accretive quadratic form q(X) = QX.X with Q complex symmetric 2n x 2n,
    and tol, the one tolerance of every stage that takes it.

    tol must lie in (0, 1) (InvalidTolerance): the rank decisions take it as
    relative, and at 1 or more keep nothing.  Q is symmetrized on
    construction (with a warning if its relative_distance from Q^T exceeds
    1e-12), and lambda_min(Re Q) >= -tol |Q|_F, else NotPSDWithinTol.
    """
    n: int
    Q: np.ndarray
    tol: float = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        if not 0 < self.tol < 1:
            raise InvalidTolerance(f"tol = {self.tol} must be positive and below 1",
                                   module=_MOD, operation="QuadraticForm")
        Q = np.asarray(self.Q, dtype=complex)
        if Q.ndim != 2 or Q.shape != (2 * self.n, 2 * self.n):
            raise DimensionMismatch(
                f"Q must be {2*self.n}x{2*self.n}, got {Q.shape}",
                module=_MOD, operation="QuadraticForm")
        if not np.isfinite(Q).all():
            raise DimensionMismatch("Q has non-finite entries",
                                    module=_MOD, operation="QuadraticForm")
        self.Q = _symmetrized(Q, relative_distance(Q, Q.T), self.tol)


def _symmetrized(Q, asym: float, tol: float) -> np.ndarray:
    """QuadraticForm's symmetrization, warning and PSD check of a finite
    2n x 2n Q whose relative_distance from Q^T is asym: cli.load_problem
    shares it, so that a problem file's asymmetry is measured once."""
    if asym > _SYM_TOL:
        warnings.warn(f"symmetrizing Q: asymmetry {asym:.3e} exceeds {_SYM_TOL:.0e} "
                      "relative; Weyl symbols only see the symmetric part", stacklevel=3)
    Q = Q / 2 + Q.T / 2  # (Q + Q^T) / 2 would overflow past 9e307
    lam = np.linalg.eigvalsh(Q.real)[0]
    if lam < -tol * frobenius(Q):
        raise NotPSDWithinTol(f"Re Q must be positive semidefinite (lambda_min = {lam:.3e})",
                              module=_MOD, operation="QuadraticForm")
    return Q


def _unchecked(n: int, Q, tol: float = DEFAULT_TOL) -> QuadraticForm:
    """The QuadraticForm of Q as it is, with none of QuadraticForm's checks:
    for a Q already symmetric, finite and with Re Q >= 0 (a shear's
    congruence, a checked problem file, a fixture)."""
    form = object.__new__(QuadraticForm)
    form.n, form.Q, form.tol = n, Q, tol
    return form


def hamilton_map(q: QuadraticForm) -> np.ndarray:
    """F = JQ."""
    return standard_J(q.n) @ q.Q


def _congruence_unchecked(q: QuadraticForm, T) -> QuadraticForm:
    """The form of q(TX), of matrix T^T Q T symmetrized as QuadraticForm
    does, with none of QuadraticForm's checks: for a real T of determinant 1
    (decompose.select_gamma's shear), whose congruence cannot break the
    symmetry, finiteness or Re Q >= 0 that q was validated for."""
    Q = T.T @ q.Q @ T
    return _unchecked(q.n, Q / 2 + Q.T / 2, q.tol)


def shear_transform(Gsym) -> np.ndarray:
    """Phase-space shear (x, xi) -> (x, xi + Gsym x) as a 2n x 2n matrix.

    This is the linear flow conjugating multiplication by exp(i Gx.x / 2);
    it is symplectic for any symmetric Gsym.
    """
    Gsym = np.asarray(Gsym, dtype=float)
    n = Gsym.shape[0]
    T = np.eye(2 * n)
    T[n:, :n] = Gsym
    return T


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
    n = D.shape[-1]
    E = np.zeros(D.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    E[..., n:, n:] = D
    return E


def embed_cross(M) -> np.ndarray:
    """Matrix of the form (M x).xi for an arbitrary n x n M."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[-1]
    E = np.zeros(M.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    E[..., :n, n:], E[..., n:, :n] = M.mT / 2, M / 2
    return E

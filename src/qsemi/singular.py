"""Singular space of an accretive quadratic form, its global index, and the
graph condition.

The singular space is the intersection of the kernels of Re(Q) (Im JQ)^l for
l = 0 .. 2n-1; the global index is the smallest l at which the intersection
stabilizes.  The graph condition asks whether this real subspace is the graph
{(x, Gx)} of a real n x n matrix acting on the physical variables.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidTolerance
from .matfun import DEFAULT_TOL, rounding_allowance
from .quadform import QuadraticForm, hamilton_map

_MOD = "singular"


def _check_tol(tol: float, operation: str) -> None:
    """The rank decisions take tol as relative; at 1 or more they keep nothing."""
    if not 0 < tol < 1:
        raise InvalidTolerance(f"tol = {tol} must be positive and below 1",
                               module=_MOD, operation=operation)


@dataclass
class SingularSpaceReport:
    """Orthonormal basis of S together with the index data and the SVD gap.

    sv_kept / sv_dropped expose the singular values bracketing the rank
    decision so borderline cases can be audited by callers; sv_max is the
    largest.
    """
    basis: np.ndarray          # (2n, d), orthonormal real columns
    k0: int
    dim: int
    tol: float = field(repr=False, default=DEFAULT_TOL)
    sv_kept: float = field(repr=False, default=float("nan"))
    sv_dropped: float = field(repr=False, default=float("nan"))
    sv_max: float = field(repr=False, default=0.0)

    @property
    def gap_ratio(self) -> float:
        """sv_kept / sv_dropped; inf where no value is dropped (nan) or the
        dropped one is at the SVD's rounding level, rounding_allowance(2n)
        sv_max or less: an exact gap."""
        m = self.basis.shape[0]
        if not self.sv_dropped > rounding_allowance(m) * self.sv_max:
            return float("inf")
        return self.sv_kept / self.sv_dropped


@dataclass
class GraphCertificate:
    """G with S contained in {(x, Gx)}; N and Gsym are its skew/symmetric parts."""
    G: np.ndarray
    N: np.ndarray
    Gsym: np.ndarray


def singular_space(q: QuadraticForm, tol: float = DEFAULT_TOL) -> SingularSpaceReport:
    """Compute S, its dimension and the global index k0.

    All 2n iterates Re(Q) (Im F)^l are stacked, and one SVD of the stack
    gives its rank (singular values >= tol * sigma_max, or >= tol when
    sigma_max < tol), the two singular values bracketing it, and S, spanned
    by the right singular vectors past it.  k0 is the first l whose prefix
    stack of levels 0..l has that rank (the whole stack at l = 2n - 1).
    tol must lie in (0, 1) (InvalidTolerance).
    """
    _check_tol(tol, "singular_space")
    n2 = 2 * q.n
    ReQ = q.Q.real
    ImF = hamilton_map(q).imag
    blocks = []
    P = np.eye(n2)
    for _ in range(n2):
        blocks.append(ReQ @ P)
        P = P @ ImF
    full = np.vstack(blocks)

    _, sv, vh = np.linalg.svd(full, full_matrices=False)
    smax = sv[0] if sv.size else 0.0
    thresh = tol * smax if smax >= tol else tol
    rank = int((sv >= thresh).sum())
    dim_S = n2 - rank
    kept = float(sv[rank - 1]) if rank > 0 else float("nan")
    dropped = float(sv[rank]) if rank < sv.size else 0.0
    basis = vh[rank:].T  # the stack is real, and so is S

    k0 = n2 - 1
    for k in range(n2 - 1):
        sv_k = np.linalg.svd(np.vstack(blocks[: k + 1]), compute_uv=False)
        if int((sv_k >= thresh).sum()) == rank:
            k0 = k
            break
    return SingularSpaceReport(basis=basis, k0=k0, dim=dim_S, tol=tol,
                               sv_kept=kept, sv_dropped=dropped, sv_max=float(smax))


def graph_condition(report: SingularSpaceReport, tol: float = DEFAULT_TOL,
                    ) -> GraphCertificate | None:
    """Return the minimal-norm graph certificate, or None when S meets {0} x R^n.

    G solves G (Pi_x basis) = Pi_xi basis in the least-squares sense and is
    extended by zero off the projection of S, which is the minimal Frobenius
    norm choice.  tol must lie in (0, 1) (InvalidTolerance).
    """
    _check_tol(tol, "graph_condition")
    basis = np.asarray(report.basis, dtype=float)
    n = basis.shape[0] // 2
    d = basis.shape[1]
    if d == 0:
        Z = np.zeros((n, n))
        return GraphCertificate(G=Z, N=Z.copy(), Gsym=Z.copy())
    X = basis[:n, :]
    Xi = basis[n:, :]
    sv = np.linalg.svd(X, compute_uv=False)
    smax = sv[0] if sv.size else 0.0
    thresh = tol * max(smax, 1.0)
    if int((sv >= thresh).sum()) < d:
        return None
    G = Xi @ np.linalg.pinv(X, rcond=tol)
    N = (G - G.T) / 2
    Gsym = (G + G.T) / 2
    return GraphCertificate(G=G, N=N, Gsym=Gsym)


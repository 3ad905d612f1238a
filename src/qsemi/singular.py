"""Singular space of an accretive quadratic form, its global index, and the
graph condition.

The singular space is the intersection of the kernels of Re(Q) (Im JQ)^l for
l = 0 .. 2n-1, the unobservable subspace of the pair (Im JQ, Re Q); the
global index is the smallest l at which the intersection stabilizes.  The
graph condition asks whether this real subspace is the graph {(x, Gx)} of a
real n x n matrix acting on the physical variables.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matfun import DEFAULT_TOL, rounding_allowance
from .quadform import QuadraticForm, hamilton_map

_MOD = "singular"


@dataclass
class SingularSpaceReport:
    """Orthonormal basis of S together with the index data and the SVD gap.

    gap_ratio is the smallest ratio, over the levels of the staircase, of the
    last singular value a level keeps (its scale where it keeps none) to the
    first it drops; inf where no level drops a value above the SVD's
    rounding, rounding_allowance(2n) times the level's scale: an exact gap.
    """
    basis: np.ndarray          # (2n, d), orthonormal real columns
    k0: int
    dim: int
    tol: float = field(repr=False, default=DEFAULT_TOL)
    gap_ratio: float = field(repr=False, default=float("inf"))


@dataclass
class GraphCertificate:
    """G with S contained in {(x, Gx)}; N and Gsym are its skew/symmetric parts."""
    G: np.ndarray
    N: np.ndarray
    Gsym: np.ndarray


def _rank(sv, scale: float, q: QuadraticForm) -> tuple[int, float]:
    """The rank of a level with singular values sv, those above q.tol * scale,
    and the gap ratio of that decision: the last value kept (scale where none
    is) over the first dropped, inf where none is dropped above the SVD's
    rounding, rounding_allowance(2n) * scale."""
    rank = int((sv > q.tol * scale).sum())
    if rank == sv.size or not sv[rank] > rounding_allowance(2 * q.n) * scale:
        return rank, float("inf")
    return rank, float((sv[rank - 1] if rank else scale) / sv[rank])


def singular_space(q: QuadraticForm) -> SingularSpaceReport:
    """Compute S, its dimension and the global index k0 by the staircase.

    N_0 = Ker Re Q and, with V_k an orthonormal basis of N_k,
    N_{k+1} = V_k Ker((I - V_k V_k^T) Im F V_k) for F = JQ: the x in N_k with
    Im F x in N_k, so N_k is the kernel of the levels 0..k of the stack
    Re Q (Im F)^l (Paige, IEEE TAC 26, 1981: stable where the stack is not).
    Each level is one thin SVD, and its rank is _rank's at tol = q.tol, which
    the report keeps: level 0 at the scale |Re Q|_2, its own largest value,
    every later level at max(|Re Q|_2, |Im F|_2).  Both scale with q, so every
    positive multiple of q gets the same answer, and Im F = 0 stops at once.
    The staircase stops at a level that drops nothing or at N_k = {0}; k0 is
    the number of levels past 0 that dropped a dimension.  Im F is formed
    only where Re Q is singular.
    """
    ReQ = q.Q.real
    _, sv, vh = np.linalg.svd(ReQ, full_matrices=False)
    rank, gap = _rank(sv, sv[0], q)
    V, k0 = vh[rank:].T, 0  # Re Q is real, and so is S
    if V.shape[1]:
        ImF = hamilton_map(q).imag
        scale = max(sv[0], np.linalg.svd(ImF, compute_uv=False)[0])
        while V.shape[1]:
            M = ImF @ V
            _, sv, vh = np.linalg.svd(M - V @ (V.T @ M), full_matrices=False)
            rank, level_gap = _rank(sv, scale, q)
            gap = min(gap, level_gap)
            if not rank:
                break
            V, k0 = V @ vh[rank:].T, k0 + 1
    return SingularSpaceReport(basis=V, k0=k0, dim=V.shape[1], tol=q.tol, gap_ratio=gap)


def graph_condition(report: SingularSpaceReport) -> GraphCertificate | None:
    """Return the minimal-norm graph certificate, or None when S meets {0} x R^n.

    G solves G (Pi_x basis) = Pi_xi basis in the least-squares sense and is
    extended by zero off the projection of S, which is the minimal Frobenius
    norm choice.  One SVD of Pi_x basis gives both its rank (full column rank
    is the graph condition, at the report's tolerance) and G, by the
    pseudo-inverse from that SVD.
    """
    basis = np.asarray(report.basis, dtype=float)
    n = basis.shape[0] // 2
    d = basis.shape[1]
    if d == 0:
        Z = np.zeros((n, n))
        return GraphCertificate(G=Z, N=Z.copy(), Gsym=Z.copy())
    X = basis[:n, :]
    Xi = basis[n:, :]
    u, sv, vt = np.linalg.svd(X, full_matrices=False)
    if int((sv >= report.tol * max(sv[0], 1.0)).sum()) < d:
        return None
    G = Xi @ (vt.T @ ((1 / sv)[:, None] * u.T))
    N = (G - G.T) / 2
    Gsym = (G + G.T) / 2
    return GraphCertificate(G=G, N=N, Gsym=Gsym)


"""Dense complex matrix functions: the exponential and principal log of a
stack of matrices, the exponentials of one matrix along a grid of times, cos
and arctan, the pair exp(+-X) of a Hamiltonian X from one exponential,
Pfaffians and the continuous branch of sqrt(det cos), rank-revealing null
spaces, PSD tests, and the Cholesky certificate that spares an eigenvalue
gate its eigenvalues where it can prove them.

All routines are dense and target matrices of size at most ~40x40; inputs are
validated for finiteness and shape, never mutated.  The exponential, log, cos,
arctan and Pfaffian also take stacks, one matrix per entry, and
sqrt(det cos(tJQ)) a stack of forms broadcast against a grid of times.  expm
and the log choose their Pade degree (and expm its squarings) per entry and
evaluate each degree in one stacked pass, so an entry comes out as it would
alone.  The input picks the exponential: one matrix B over the times t_k
(the exp(itJQ) of mehler.flow_kernel, the exp(-2itJQ) of the polar split)
takes expm_grid, whose truncated Taylor sums share one set of powers of B
and need no solve.  Every stack of distinct matrices (exp(2itJA), e^{tM},
the Strang middle term) takes expm, and so does cos_sin_sqrt_det's stack of
itJQ over forms and times, the symbol route that verify_decomposition keeps
as its oracle.  The exponential of a Hamiltonian has its inverse from
symplectic_inverse, with no rounding.  decompose.verify_decomposition and
the kernel transport it applies keep scipy.linalg.expm as an independent
oracle.  A computation on a stack reports its failed checks through Checks:
it raises at the first failing entry, or records each failing entry with
its first error and goes on, so that one pass over a grid finds every entry
that fails, and why.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    BranchCut,
    ConjugatePointOnPath,
    DegenerateTime,
    NonSquare,
    SpectralRadiusTooLarge,
)

DEFAULT_TOL = 1e-9

_MOD = "matfun"

#: the diagonal Pade approximants to log(I + X), of degree m = 1..10, each
#: evaluated as the Gauss-Legendre sum of its partial fractions: the 1-norm of
#: X up to which degree m is accurate to unit roundoff, from the Kenney-Laub
#: relative bound |r_m(-x) - log(1 - x)| <= 2^-53 |log(1 - x)| (Higham,
#: Functions of Matrices, SIAM 2008, sec. 11.4), solved at 60 digits and
#: rounded down
_LOG_THETA = (3.65e-8, 3.75e-4, 8.19e-3, 3.78e-2, 9.29e-2, 0.165, 0.245, 0.325,
              0.399, 0.466)

#: the diagonal Pade approximants r_m = (V - U)^-1 (V + U) to exp, of degree
#: m = 3, 5, 7, 9, 13 (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Table
#: 2.3 and eq. (2.4)): the 1-norm of X up to which r_m(X) is exp(X) to unit
#: roundoff, and the coefficients b_0, ..., b_m of r_m divided by b_1.  b_0 is
#: 2 b_1 at every degree, so a square-zero X (the heat form's JQ) gives
#: exactly U = X, V = 2I and r_m(X) = I + X
_EXPM_PADE = {m: (theta, tuple(b / c[1] for b in c)) for m, theta, c in (
    (3, 1.495585217958292e-2, (120, 60, 12, 1)),
    (5, 2.539398330063230e-1, (30240, 15120, 3360, 420, 30, 1)),
    (7, 9.504178996162932e-1, (17297280, 8648640, 1995840, 277200, 25200, 1512,
                               56, 1)),
    (9, 2.097847961257068, (17643225600, 8821612800, 2075673600, 302702400,
                            30270240, 2162160, 110880, 3960, 90, 1)),
    (13, 5.371920351148152, (64764752532480000, 32382376266240000,
                             7771770303897600, 1187353796428800, 129060195264000,
                             10559470521600, 670442572800, 33522128640,
                             1323241920, 40840800, 960960, 16380, 182, 1)),
)}

#: the truncated Taylor series T_m of exp, of degree m = 10, 12, 15, 18, 20,
#: 25, 30 (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011, Table 3.1):
#: the 1-norm of X up to which T_m(X) = exp(X + dX) with |dX|_1 <= 2^-53
#: |X|_1, from the bound sum_k |c_k| |X|_1^k / |X|_1 <= 2^-53 on the series
#: log(e^-x T_m(x)) = sum_{k > m} c_k x^k, solved at 60 digits on its first
#: 150 terms and rounded down
_TAYLOR_THETA = {10: 0.144182, 12: 0.299615, 15: 0.641083, 18: 1.09086,
                 20: 1.43825, 25: 2.42858, 30: 3.53966}
_TAYLOR_DEGREES, _TAYLOR_THETAS = (np.array(a) for a in zip(*_TAYLOR_THETA.items()))

#: j! rounded once, for j = 0, ..., 30
_FACTORIAL = np.array([float(math.factorial(j)) for j in range(31)])

#: square roots per entry, and Denman-Beavers steps per root, at most: 64
#: roots bring the log of any finite matrix within _LOG_THETA[-1] of 0, and a
#: root converges in far fewer steps
_MAX_STEPS = 64


def as_square(A, *, operation: str = "") -> np.ndarray:
    """Validate and return a finite square complex matrix, or a stack of them
    (..., m, m) (copy-free view)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise NonSquare(f"expected square matrix, got shape {A.shape}",
                        module=_MOD, operation=operation)
    Checks()(~np.isfinite(A).all(axis=(-2, -1)), NonSquare,
             "matrix has non-finite entries", module=_MOD, operation=operation)
    return A


def first_index(bad) -> int | None:
    """Position of the first True of a mask (flattened), or None."""
    bad = np.ravel(bad)
    return int(bad.argmax()) if bad.any() else None


class Checks:
    """The failed checks of a computation on a stack of entries.

    Checks() raises each check's error at its first failing entry.
    Checks(shape) instead records the failing entries in the mask `bad` and
    lets the computation go on: a pass over a whole grid then finds every
    entry that fails some check.  `errors` maps each failed entry's flattened
    index to its first error, built when the entry fails as Checks() would
    raise it, with `index` its position in the stack.  The computation
    replaces the failed entries by benign values (clean) before any later
    solve or inverse, so that one failed entry cannot stop the others.
    """

    def __init__(self, shape=None):
        self.bad = None if shape is None else np.zeros(shape, dtype=bool)
        self.errors: dict = {}

    def __call__(self, mask, error, message, *, module: str, operation: str):
        """Fail the entries of mask with error; message is a string or a
        function of the (flattened) index of the entry it describes."""
        def fail(i):
            return error(message(i) if callable(message) else message,
                         module=module, operation=operation, index=i)

        mask = np.asarray(mask, dtype=bool)
        if self.bad is None:
            i = first_index(mask)
            if i is not None:
                raise fail(i)
        elif mask.any():
            for i in np.flatnonzero(mask & ~self.bad).tolist():
                self.errors[i] = fail(i)
            self.bad |= mask

    def clean(self, X, benign):
        """X (one value, vector or matrix per entry) with the entries failed
        so far replaced by benign."""
        if self.bad is None:
            return X
        bad = self.bad.reshape(self.bad.shape + (1,) * (np.ndim(X) - self.bad.ndim))
        return np.where(bad, benign, X)


def _norm1(X) -> np.ndarray:
    """Matrix 1-norm of each matrix of a stack."""
    return np.abs(X).sum(axis=-2).max(axis=-1)


def _sqrt_db(A) -> np.ndarray:
    """Principal square root of each matrix of a stack, none with an eigenvalue
    on (-inf, 0], by the Denman-Beavers iteration (Higham, Functions of
    Matrices, eq. (6.15)): Y -> (Y + Z^-1)/2, Z -> (Z + Y^-1)/2 from Y = A,
    Z = I, with Y -> A^(1/2) and Z -> A^(-1/2) quadratically.

    The coupled form, not the product form of eq. (6.17): against mpmath, on
    26 seeded matrices far from I its log had the smaller error 21 times (by
    up to 20 times), and on exp(-4itJA) of a rank-n form at t = 1.5 an error
    of 1.9e-14 where the product form gave 1.3e-13.
    """
    Y, Z = A.copy(), np.zeros_like(A) + np.eye(A.shape[-1])
    # each entry iterates until it converges, as it would alone
    run = np.ones(len(A), dtype=bool)
    for _ in range(_MAX_STEPS):
        Yr, Zr = Y[run], Z[run]
        Y[run], Z[run] = (Yr + np.linalg.inv(Zr)) / 2, (Zr + np.linalg.inv(Yr)) / 2
        # the error after the next step is of the order of this step squared
        run[run] = _norm1(Y[run] - Yr) > 1e-10 * _norm1(Y[run])
        if not run.any():
            break
    return Y


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rules on [0, 1] for each
    degree m of _LOG_THETA, in row m - 1, padded with zeros; computed on first
    use, so that importing runs no LAPACK."""
    M = len(_LOG_THETA)
    nodes, weights = np.zeros((M, M)), np.zeros((M, M))
    for m in range(1, M + 1):
        u, w = np.polynomial.legendre.leggauss(m)
        nodes[m - 1, :m], weights[m - 1, :m] = (u + 1) / 2, w / 2
    return nodes, weights


def _log1p_pade(X) -> np.ndarray:
    """log(I + X) for each matrix of a stack with |X|_1 <= _LOG_THETA[-1]: the
    diagonal Pade approximant sum_j w_j X (I + u_j X)^-1 of the smallest degree
    m with |X|_1 <= _LOG_THETA[m - 1], whose partial fractions are the m-point
    Gauss-Legendre rule for int_0^1 X (I + uX)^-1 du.  One solve takes every
    (entry, node) pair of the stack."""
    k = X.shape[-1]
    Xs = X.reshape(-1, k, k)
    M = len(_LOG_THETA)
    degree = np.minimum(np.searchsorted(_LOG_THETA, _norm1(Xs)), M - 1) + 1
    pair = np.arange(M) < degree[:, None]
    entry = np.nonzero(pair)[0]
    nodes, weights = (a[degree - 1][pair] for a in _gauss_legendre())
    Y = np.linalg.solve(np.eye(k) + nodes[:, None, None] * Xs[entry], Xs[entry])
    L = np.zeros_like(Xs)
    np.add.at(L, entry, weights[:, None, None] * Y)
    return L.reshape(X.shape)


def log_principal(Z, X, tol: float, checks: Checks) -> np.ndarray:
    """Principal log of each matrix Z of a stack (..., m, m), given X = Z - I.

    A caller that has X more accurately than Z - I (mat_arctan, where X is
    O(s) for an argument of order s) keeps that accuracy: Z is only rooted
    where |X|_1 > _LOG_THETA[-1], each root doubling the absolute error of
    that entry alone.  Inverse scaling and squaring (Al-Mohy and Higham,
    SIAM J. Sci. Comput. 34(4), 2012): log Z = 2^k log(I + X_k) with
    X_k = Z^(1/2^k) - I, by square roots then a Pade approximant.

    Checks: Z must be finite (NonSquare), and no eigenvalue may sit on or
    numerically hug the closed negative real half-line (BranchCut).
    """
    op = "mat_log_principal"
    m = Z.shape[-1]
    I = np.eye(m)
    checks(~np.isfinite(Z).all(axis=(-2, -1)), NonSquare,
           "matrix has non-finite entries", module=_MOD, operation=op)
    Z, X = checks.clean(Z, I), checks.clean(X, 0)
    norm = _norm1(X)
    # |lambda - 1| <= |X|_1 <= (1 - tol) / (1 + tol) puts every eigenvalue in
    # the right half-plane with |lambda| >= tol * max(|lambda|, 1), so only
    # the entries farther from I need their eigenvalues, and a stack with none
    # takes no branch test
    far = ~(norm <= (1 - tol) / (1 + tol))
    if far.any():
        w = np.ones(Z.shape[:-1], dtype=complex)
        w[far] = np.linalg.eigvals(Z[far])
        scale = np.maximum(np.abs(w).max(axis=-1, initial=0.0), 1.0)
        zero = np.abs(w) < tol * scale[..., None]
        neg = (w.real < 0) & (np.abs(w.imag) < tol * np.abs(w))

        def cut(i):
            for lam, z, n in zip(w.reshape(-1, m)[i], zero.reshape(-1, m)[i],
                                 neg.reshape(-1, m)[i]):
                if z:
                    return f"eigenvalue {lam} too close to 0"
                if n:
                    return f"eigenvalue {lam} on the negative real axis"

        checks((zero | neg).any(axis=-1), BranchCut, cut, module=_MOD, operation=op)
        Z, X, norm = checks.clean(Z, I), checks.clean(X, 0), checks.clean(norm, 0)
    roots = np.zeros(Z.shape[:-2], dtype=int)
    need = norm > _LOG_THETA[-1]
    if need.any():
        # the roots replace entries in place, in copies of Z and X
        Z, X = np.array(Z, dtype=complex), np.array(X, dtype=complex)
    for _ in range(_MAX_STEPS):
        if not need.any():
            break
        Z[need] = _sqrt_db(Z[need])
        X[need] = Z[need] - I
        roots += need
        need &= _norm1(X) > _LOG_THETA[-1]
    return _log1p_pade(np.asarray(X, dtype=complex)) * 2.0 ** roots[..., None, None]


def mat_log_principal(A, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal matrix logarithm of a matrix, or of each matrix of a stack
    (..., m, m); see log_principal.

    Raises BranchCut when an eigenvalue sits on (or numerically hugs) the
    closed negative real half-line, where the principal branch is ill-defined.
    """
    A = as_square(A, operation="mat_log_principal")
    return log_principal(A, A - np.eye(A.shape[-1]), tol, Checks())


def _add_identity(S, c) -> np.ndarray:
    """S + c I for each matrix of a stack, formed in S (or in a contiguous
    copy) and returned: only the diagonal is added to, so an off-diagonal
    -0.0 stays -0.0 where S + c I gives +0.0."""
    S = np.ascontiguousarray(S)
    k = S.shape[-1]
    S.reshape(S.shape[:-2] + (k * k,))[..., ::k + 1] += c
    return S


def _pade_uv(A, b) -> tuple[np.ndarray, np.ndarray]:
    """The odd and even parts U and V of the Pade approximant with coefficients
    b (_EXPM_PADE) at each matrix of the stack A, as Higham (2005) evaluates
    them: from A^2, A^4 and A^6 at degree 13, from the powers of A^2 below.

    The sums are accumulated in place, term by term in the order of Higham's
    sums (the identity term first below degree 13, where c_0 I + c_2 A^2 is
    c_2 A^2 + c_0 I, and last at degree 13), so each entry rounds as in
    those sums, up to the sign of a zero (_add_identity)."""
    A2 = A @ A
    scratch = np.empty_like(A2)

    def add(S, c, P):  # S += c P, with no new array
        S += np.multiply(P, c, out=scratch)
        return S

    if len(b) == 14:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A6 @ add(add(b[13] * A6, b[11], A4), b[9], A2)
        U = A @ _add_identity(add(add(add(U, b[7], A6), b[5], A4), b[3], A2), b[1])
        V = A6 @ add(add(b[12] * A6, b[10], A4), b[8], A2)
        return U, _add_identity(add(add(add(V, b[6], A6), b[4], A4), b[2], A2), b[0])
    U, V = _add_identity(b[3] * A2, b[1]), _add_identity(b[2] * A2, b[0])
    P = A2
    for c_odd, c_even in zip(b[5::2], b[4::2]):
        P = P @ A2
        add(U, c_odd, P)
        add(V, c_even, P)
    return A @ U, V


def expm(X) -> np.ndarray:
    """exp of a real or complex matrix, or of each matrix of a stack (..., m, m),
    by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).

    Each entry takes the smallest degree m in 3, 5, 7, 9 with |X|_1 <= theta_m,
    else degree 13 on X / 2^s, with s the fewest halvings that bring |X|_1
    within theta_13, and s squarings after.  The entries of one degree go
    through one stacked pass, and the quotient is I + 2 (V - U)^-1 U, as
    scipy.linalg.expm forms it: (V - U)^-1 (V + U) loses accuracy.  An entry
    comes out as it would alone.  A degree's pass accumulates its sums in
    place (_pade_uv), rescales nothing where every entry has s = 0 (every
    degree below 13), and forms V - U and I + 2 (V - U)^-1 U in place: the
    result is that of the sums formed out of place, up to the sign of a zero.
    """
    X = np.asarray(X)
    k = X.shape[-1]
    A = X.reshape(-1, k, k).astype(np.result_type(X, float), copy=False)
    E = np.empty_like(A)
    norm = _norm1(A)
    degree = np.full(norm.shape, 13)
    for m in (9, 7, 5, 3):
        degree[norm <= _EXPM_PADE[m][0]] = m
    # a non-finite entry is left unscaled, to come out non-finite
    big = (degree == 13) & np.isfinite(norm)
    s = np.zeros(norm.shape, dtype=int)
    s[big] = np.ceil(np.log2(norm[big] / _EXPM_PADE[13][0])).clip(0)
    for m in np.unique(degree).tolist():
        i = np.flatnonzero(degree == m)
        Ai = A[i]
        if s[i].any():
            Ai *= 2.0 ** -s[i, None, None]
        U, V = _pade_uv(Ai, _EXPM_PADE[m][1])
        V -= U
        Y = np.linalg.solve(V, U)
        Y *= 2
        E[i] = _add_identity(Y, 1)
    for j in range(s.max(initial=0)):
        i = np.flatnonzero(s > j)
        E[i] = E[i] @ E[i]
    return E.reshape(X.shape)


def expm_grid(B, t) -> np.ndarray:
    """exp(t_k B) of one real or complex matrix B (k, k) at each time t_k of
    a time or an array of times t, stacked over t, by truncated Taylor sums
    on one set of powers (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2),
    2011).

    The powers A^j of A = B / 2^e, 2^e the least power of two above |B|_1,
    are formed once: the scaling is exact and |A^j|_1 < 1.  Each entry takes
    the smallest degree m of _TAYLOR_THETA with |t_k| |B|_1 <= theta_m, else
    degree 30 on t_k B / 2^s, with s the fewest halvings that bring
    |t_k| |B|_1 within theta_30, and s squarings after.  The terms past the
    identity, tau^j / j! A^j with tau = t_k 2^(e - s), are summed from the
    highest degree down, the smallest first, and I is added after, in one
    rounding: I inside the sum would round every entry near it to I's
    scale.  The entries of one degree take one broadcast matmul, a
    (1 x m)(m x k^2) product per entry (on the real and imaginary parts
    side by side), so an entry comes out as it would alone.  No solve.  An
    entry with |t_k| |B|_1 not finite comes out nan.
    """
    B = np.asarray(B)
    k = B.shape[-1]
    t = np.asarray(t, dtype=float)
    tf = t.ravel()
    norm = _norm1(B)
    e = np.frexp(norm)[1]
    A = B.astype(np.result_type(B, float)) * 2.0 ** -e
    with np.errstate(over="ignore"):
        x = np.abs(tf) * norm
    finite = np.isfinite(x)
    pick = np.searchsorted(_TAYLOR_THETAS, np.where(finite, x, 0))
    s = np.zeros(tf.shape, dtype=int)
    big = pick == len(_TAYLOR_THETAS)
    s[big] = np.ceil(np.log2(x[big] / _TAYLOR_THETAS[-1]))
    degree = _TAYLOR_DEGREES[np.minimum(pick, len(_TAYLOR_THETAS) - 1)]
    tau = np.ldexp(np.where(finite, tf, 0), e - s)
    # row r of P holds A^(D - r), as D reals or pairs of reals
    D = degree.max(initial=1)
    P = np.empty((D, k, k), dtype=A.dtype)
    P[-1] = A
    for r in range(D - 2, -1, -1):
        np.matmul(P[r + 1], A, out=P[r])
    P = P.reshape(D, k * k).view(float)
    E = np.empty((tf.size, P.shape[-1]))
    for m in np.unique(degree).tolist():
        i = np.flatnonzero(degree == m)
        j = np.arange(m, 0, -1)
        c = tau[i, None, None] ** j / _FACTORIAL[j]  # (entries, 1, m)
        E[i] = (c @ P[D - m:])[:, 0]
    E = _add_identity(E.view(A.dtype).reshape(-1, k, k), 1)
    for j in range(s.max(initial=0)):
        i = np.flatnonzero(s > j)
        E[i] = E[i] @ E[i]
    E[~finite] = np.nan
    return E.reshape(t.shape + (k, k))


def symplectic_inverse(E) -> np.ndarray:
    """E^-1 = J^T E^T J of each complex symplectic E (E^T J E = J) of a stack
    (..., 2n, 2n), J = [[0, I], [-I, 0]]: for E = [[a, b], [c, d]] that is
    [[d^T, -b^T], [-c^T, a^T]], a block permutation with no rounding.
    exp(X) is symplectic for every X = J S with S complex symmetric, and
    exp(-X) is its inverse."""
    n = E.shape[-1] // 2
    a, b, c, d = E[..., :n, :n], E[..., :n, n:], E[..., n:, :n], E[..., n:, n:]
    Einv = np.empty_like(E)
    Einv[..., :n, :n], Einv[..., :n, n:] = d.mT, -b.mT
    Einv[..., n:, :n], Einv[..., n:, n:] = -c.mT, a.mT
    return Einv


def expm_hamiltonian(X) -> tuple[np.ndarray, np.ndarray]:
    """exp(X) and exp(-X) = symplectic_inverse(exp(X)) for each X = J S of a
    stack (..., 2n, 2n), S complex symmetric, from one expm call."""
    E = expm(X)
    return E, symplectic_inverse(E)


def mat_cos(A) -> np.ndarray:
    """cos(A) = (exp(iA) + exp(-iA)) / 2, from one expm on the stack of +-iA."""
    A = as_square(A, operation="mat_cos")
    E = sla.expm(np.stack([1j * A, -1j * A]))
    return (E[0] + E[1]) / 2


def mat_arctan(A) -> np.ndarray:
    """arctan of a matrix, or of each matrix of a stack (..., m, m), of
    spectral radius < 1, as (2i)^{-1} log(I + X) with
    X = (I - iA)^{-1} 2iA = (I + iA)(I - iA)^{-1} - I.

    That is the power series on its disc of convergence, and it tolerates
    defective (e.g. nilpotent) arguments; X is formed without the
    cancellation of subtracting I, so a small A keeps its relative accuracy.
    Raises SpectralRadiusTooLarge unless the spectral radius is below
    1 - DEFAULT_TOL.
    """
    op = "mat_arctan"
    A = as_square(A, operation=op)
    I = np.eye(A.shape[-1])
    # the spectral radius is at most either norm: eigenvalues only where it may fail
    far = ~(np.minimum(_norm1(A), _norm1(A.mT)) < 1.0 - DEFAULT_TOL)
    rho = np.zeros(A.shape[:-2])
    rho[far] = np.abs(np.linalg.eigvals(A[far])).max(axis=-1, initial=0.0)
    Checks()(rho >= 1.0 - DEFAULT_TOL, SpectralRadiusTooLarge,
             lambda i: f"spectral radius {rho.flat[i]:.6f} not strictly below 1",
             module=_MOD, operation=op)
    X = np.linalg.solve(I - 1j * A, 2j * A)
    return log_principal(I + X, X, DEFAULT_TOL, Checks()) / 2j


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
    t from 1 at t = 0, for Q complex symmetric, or a stack of them
    (..., 2n, 2n), and a time t or an array of times, broadcast against the
    stack: the results are stacked over the broadcast shape.

    cos and sin are (E + E^-1) / 2 and (E - E^-1) / 2i for E = exp(itJQ),
    with E^-1 = exp(-itJQ) = J^T E^T J (expm_hamiltonian): one expm call on
    the stack of itJQ gives both at every entry.  J cos(tJQ) = (JE - (JE)^T)
    / 2 is then skew-symmetric to the last bit, so Pf(J cos(tJQ)) / Pf(J)
    squares to det cos(tJQ); being a polynomial in the entries that equals 1
    at t = 0, it is that branch (Hormander, Math. Z. 219, 1995).  cos
    vanishes only on the real axis, so det cos(sJQ) has a zero for some s in
    (0, t] exactly when JQ has a real eigenvalue lambda with t |lambda| >=
    pi/2; that is reported as ConjugatePointOnPath, with index the entry's
    position in the broadcast shape (a negative time's, in t).  One
    eigvals(JQ) per form serves every t.  An entry's cos and sin come out as they would alone; its root may
    differ in the last bit (pfaffian).
    """
    from .quadform import standard_J  # local import to avoid a cycle

    op = "sqrt_det_cos_tracked"
    Q = as_square(Q, operation=op)
    n = Q.shape[-1] // 2
    if Q.shape[-1] != 2 * n:
        raise NonSquare("Q must be 2n x 2n", module=_MOD, operation=op)
    t = np.asarray(t, dtype=float)
    check = Checks()
    check(t < 0, ConjugatePointOnPath, "path parameter must be nonnegative",
          module=_MOD, operation=op)
    J = standard_J(n)
    JQ = J @ Q
    lam = np.linalg.eigvals(JQ)
    real = np.abs(lam.imag) <= tol * np.abs(lam)
    # float products are monotone, so t * max|lambda| >= pi/2 exactly when
    # t |lambda| >= pi/2 for some real eigenvalue lambda
    reach = t * np.where(real, np.abs(lam), 0).max(axis=-1)
    ts = np.broadcast_to(t, reach.shape)  # the time of each entry

    def conjugate_point(i):
        lam_i, real_i = (np.broadcast_to(a, reach.shape + lam.shape[-1:]).reshape(-1, 2 * n)[i]
                         for a in (lam, real))
        hit = real_i & (ts.flat[i] * np.abs(lam_i) >= np.pi / 2)
        return (f"det cos vanishes on the path: real eigenvalue {lam_i[hit][0].real:.6g} "
                f"of JQ at t = {ts.flat[i]:.6g}")

    check(reach >= np.pi / 2, ConjugatePointOnPath, conjugate_point, module=_MOD,
          operation=op)
    with np.errstate(over="ignore", invalid="ignore"):
        E, Einv = expm_hamiltonian(1j * (t[..., None, None] * JQ))
        C, S = (E + Einv) / 2, (E - Einv) / 2j
    check(~np.isfinite(C).all(axis=(-2, -1)), DegenerateTime,
          lambda i: f"cos(tJQ) overflows at t = {ts.flat[i]:.6g}", module=_MOD, operation=op)
    # Pf(J) = (-1)^(n(n-1)/2) for J = [[0, I], [-I, 0]]
    return C, S, pfaffian(J @ C) / (-1) ** (n * (n - 1) // 2)


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
    """(is_psd, lambda_min) for the Hermitian symmetrization of H (of every
    matrix of H, for a stack)."""
    H = as_square(H, operation="psd_check")
    Hs = (H + H.conj().mT) / 2
    lam_min = float(np.linalg.eigvalsh(Hs).min()) if H.size else 0.0
    return lam_min >= -tol, lam_min


def rounding_allowance(m: int) -> float:
    """2 (m + 1)^2 u, u = 2^-53: the relative room a certificate leaves for
    the rounding of an m x m matrix's Cholesky factorization
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
    2002, Thm 10.3), of its Frobenius norm (relative error below m^2 u / 2),
    and of the eigenvalues and singular values LAPACK computes (error
    p(m) u |H|_2, p(m) a modest function of m, here taken below
    (m + 1)^2 / 2)."""
    return 2 * (m + 1) ** 2 * 2.0 ** -53


def cholesky_shift(H, floor, *, rel: float = 0.0) -> np.ndarray:
    """The shift s = f + a of lambda_min_exceeds for the floor
    f = floor + rel |H|_F of each matrix of a stack H (..., m, m), real
    symmetric, with a = rounding_allowance(m) (|H|_F + |f|); inf or nan
    where H is not finite."""
    H = np.asarray(H)
    F = np.sqrt(np.einsum("...ij,...ij->...", H, H))
    if rel:
        floor = floor + rel * F
    return floor + rounding_allowance(H.shape[-1]) * (F + np.abs(floor))


def lambda_min_exceeds(H, shift) -> bool:
    """Whether one stacked Cholesky factorization of H - s I proves, for the
    shift s = cholesky_shift(H, floor, rel=rel) of each matrix of a stack H
    (..., m, m), real symmetric, that eigvalsh finds lambda_min(H) > floor +
    rel |H|_2: a certificate, never a refusal.

    Where the factorization runs to completion, R^T R = G + dG for the
    rounded G = H - s I with |dG|_2 <= (m + 1) u trace G to first order
    (Higham, Thm 10.3, and |R|_2^2 <= trace R^T R), so lambda_min(H) >= s - (m + 1) u (m^(1/2)
    |H|_F + m |s|) - u (|H|_F + |s|); a exceeds that loss plus eigvalsh's
    error and the rounding of |H|_F in the floor.  A non-finite shift (H not
    finite) proves nothing.
    """
    shift = np.asarray(shift)
    if np.size(H) == 0 or not np.isfinite(shift).all():
        return False
    try:
        np.linalg.cholesky(_add_identity(np.array(H, dtype=float), -shift[..., None]))
    except np.linalg.LinAlgError:
        return False
    return True

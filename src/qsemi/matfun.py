"""Dense complex matrix functions: the exponential and principal log of a
stack of matrices, cos and arctan, the pair exp(+-X) of a Hamiltonian X from
one exponential, Pfaffians and the continuous branch of sqrt(det cos),
rank-revealing null spaces, PSD tests.

All routines are dense and target matrices of size at most ~40x40; inputs are
validated for finiteness and shape, never mutated.  The exponential, log, cos,
arctan and Pfaffian also take stacks, one matrix per entry, and
sqrt(det cos(tJQ)) a stack of forms broadcast against a grid of times.  expm
and the log choose their Pade degree (and expm its squarings) per entry and
evaluate each degree in one stacked pass, so an entry comes out as it would
alone.  The build and the symbols form every
exponential by expm; decompose.verify_decomposition and the kernel transport
it applies keep scipy.linalg.expm as an independent oracle.  A computation on
a stack reports its failed checks through Checks: it raises at the first
failing entry, or records each failing entry with its first error and goes
on, so that one pass over a grid finds every entry that fails, and why.
"""
from __future__ import annotations

import functools
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
    i = first_index(~np.isfinite(A).all(axis=(-2, -1)))
    if i is not None:
        raise NonSquare("matrix has non-finite entries",
                        module=_MOD, operation=operation, index=i)
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
    # |lambda - 1| <= |X|_1 <= (1 - tol) / (1 + tol) puts every eigenvalue in
    # the right half-plane with |lambda| >= tol * max(|lambda|, 1), so only
    # the entries farther from I need their eigenvalues
    far = ~(_norm1(X) <= (1 - tol) / (1 + tol))
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
    Z = np.array(checks.clean(Z, I), dtype=complex)
    X = np.array(checks.clean(X, 0), dtype=complex)
    roots = np.zeros(Z.shape[:-2], dtype=int)
    need = _norm1(X) > _LOG_THETA[-1]
    for _ in range(_MAX_STEPS):
        if not need.any():
            break
        Z[need] = _sqrt_db(Z[need])
        X[need] = Z[need] - I
        roots += need
        need &= _norm1(X) > _LOG_THETA[-1]
    return _log1p_pade(X) * 2.0 ** roots[..., None, None]


def mat_log_principal(A, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal matrix logarithm of a matrix, or of each matrix of a stack
    (..., m, m); see log_principal.

    Raises BranchCut when an eigenvalue sits on (or numerically hugs) the
    closed negative real half-line, where the principal branch is ill-defined.
    """
    A = as_square(A, operation="mat_log_principal")
    return log_principal(A, A - np.eye(A.shape[-1]), tol, Checks())


def _pade_uv(A, b) -> tuple[np.ndarray, np.ndarray]:
    """The odd and even parts U and V of the Pade approximant with coefficients
    b (_EXPM_PADE) at each matrix of the stack A, as Higham (2005) evaluates
    them: from A^2, A^4 and A^6 at degree 13, from the powers of A^2 below."""
    I = np.eye(A.shape[-1])
    A2 = A @ A
    if len(b) == 14:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
        return U, V
    powers = [I, A2]
    while len(powers) < len(b) // 2:
        powers.append(powers[-1] @ A2)
    return (A @ sum(c * P for c, P in zip(b[1::2], powers)),
            sum(c * P for c, P in zip(b[0::2], powers)))


def expm(X) -> np.ndarray:
    """exp of a real or complex matrix, or of each matrix of a stack (..., m, m),
    by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).

    Each entry takes the smallest degree m in 3, 5, 7, 9 with |X|_1 <= theta_m,
    else degree 13 on X / 2^s, with s the fewest halvings that bring |X|_1
    within theta_13, and s squarings after.  The entries of one degree go
    through one stacked pass, and the quotient is I + 2 (V - U)^-1 U, as
    scipy.linalg.expm forms it: (V - U)^-1 (V + U) loses accuracy.  An entry
    comes out as it would alone.
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
        U, V = _pade_uv(A[i] * 2.0 ** -s[i, None, None], _EXPM_PADE[m][1])
        E[i] = np.eye(k) + 2 * np.linalg.solve(V - U, U)
    for j in range(s.max(initial=0)):
        i = np.flatnonzero(s > j)
        E[i] = E[i] @ E[i]
    return E.reshape(X.shape)


def expm_hamiltonian(X) -> tuple[np.ndarray, np.ndarray]:
    """exp(X) and exp(-X) for each X = J S of a stack (..., 2n, 2n), with
    J = [[0, I], [-I, 0]] and S complex symmetric, from one expm call.

    J^T X^T J = -X for such X, so exp(-X) = J^T exp(X)^T J exactly: for
    exp(X) = [[a, b], [c, d]] that is [[d^T, -b^T], [-c^T, a^T]], a block
    permutation with no rounding.
    """
    E = expm(X)
    n = E.shape[-1] // 2
    a, b, c, d = E[..., :n, :n], E[..., :n, n:], E[..., n:, :n], E[..., n:, n:]
    Einv = np.empty_like(E)
    Einv[..., :n, :n], Einv[..., :n, n:] = d.mT, -b.mT
    Einv[..., n:, :n], Einv[..., n:, n:] = -c.mT, a.mT
    return E, Einv


def mat_cos(A) -> np.ndarray:
    """cos(A) = (exp(iA) + exp(-iA)) / 2, from one expm on the stack of +-iA."""
    A = as_square(A, operation="mat_cos")
    E = sla.expm(np.stack([1j * A, -1j * A]))
    return (E[0] + E[1]) / 2


def mat_arctan(A, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """arctan of a matrix, or of each matrix of a stack (..., m, m), of
    spectral radius < 1, as (2i)^{-1} log(I + X) with
    X = (I - iA)^{-1} 2iA = (I + iA)(I - iA)^{-1} - I.

    That is the power series on its disc of convergence, and it tolerates
    defective (e.g. nilpotent) arguments; X is formed without the
    cancellation of subtracting I, so a small A keeps its relative accuracy.
    Raises SpectralRadiusTooLarge unless the spectral radius is below 1 - tol.
    """
    op = "mat_arctan"
    A = as_square(A, operation=op)
    I = np.eye(A.shape[-1])
    # the spectral radius is at most either norm: eigenvalues only where it may fail
    far = ~(np.minimum(_norm1(A), _norm1(A.mT)) < 1.0 - tol)
    rho = np.zeros(A.shape[:-2])
    rho[far] = np.abs(np.linalg.eigvals(A[far])).max(axis=-1, initial=0.0)
    Checks()(rho >= 1.0 - tol, SpectralRadiusTooLarge,
             lambda i: f"spectral radius {rho.flat[i]:.6f} not strictly below 1",
             module=_MOD, operation=op)
    X = np.linalg.solve(I - 1j * A, 2j * A)
    return log_principal(I + X, X, tol, Checks()) / 2j


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
    reach = t * np.where(real, np.abs(lam), 0).max(axis=-1)
    i = first_index(reach >= np.pi / 2)
    if i is not None:
        ti = np.broadcast_to(t, reach.shape).flat[i]
        lam_i, real_i = (np.broadcast_to(a, reach.shape + lam.shape[-1:]).reshape(-1, 2 * n)[i]
                         for a in (lam, real))
        hit = real_i & (ti * np.abs(lam_i) >= np.pi / 2)
        raise ConjugatePointOnPath(
            f"det cos vanishes on the path: real eigenvalue {lam_i[hit][0].real:.6g} "
            f"of JQ at t = {ti:.6g}", module=_MOD, operation=op, index=i)
    with np.errstate(over="ignore", invalid="ignore"):
        E, Einv = expm_hamiltonian(1j * (t[..., None, None] * JQ))
        C, S = (E + Einv) / 2, (E - Einv) / 2j
    i = first_index(~np.isfinite(C).all(axis=(-2, -1)))
    if i is not None:
        ti = np.broadcast_to(t, C.shape[:-2]).flat[i]
        raise DegenerateTime(f"cos(tJQ) overflows at t = {ti:.6g}",
                             module=_MOD, operation=op, index=i)
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


def spectral_norm(A) -> float:
    """Operator 2-norm."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))

"""Dense complex matrix functions: the exponential and principal log of a
stack of matrices, the exponentials of one matrix along a grid of times, cos,
Pfaffians and the continuous branch of sqrt(det cos), the scale-safe norm
and distance of a caller's matrices, and the Cholesky certificate that
spares an eigenvalue gate its eigenvalues where it can prove them.

All routines are dense and target matrices of size at most ~40x40; inputs are
validated for finiteness and shape, never mutated.  The exponential, log, cos
and Pfaffian also take stacks, one matrix per entry, and sqrt(det cos(tJQ)) a
stack of forms broadcast against a grid of times.  expm and the log each
choose the degree of a truncated Taylor sum per entry (and expm its
squarings) and evaluate the whole stack in one Paterson-Stockmeyer pass of
matmuls (_taylor_ps), no solve; an entry comes out as it would alone.  The
input picks the exponential: one matrix over a grid of times takes
expm_grid, whose Taylor sums, of expm's degrees and squarings
(_degree_and_squarings), share one set of powers of the matrix; a stack of
distinct matrices takes expm.  The exponential of a Hamiltonian X = JS, S
complex symmetric, has its inverse exp(-X) from symplectic_inverse, with no
rounding.  decompose.verify_decomposition keeps scipy.linalg.expm as an
independent oracle, for its shadows and the kernel transport it applies.  A
computation on a stack reports its failed checks through Checks: it raises
at the first failing entry, or records each failing entry with its first
error and goes on, so that one pass over a grid finds every entry that
fails, and why.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCut, ConjugatePointOnPath, DegenerateTime, NonSquare

DEFAULT_TOL = 1e-9

_MOD = "matfun"

#: the truncated Taylor series sum_{j <= m} (-1)^(j+1) X^j / j of log(I + X),
#: of degree m = 4, 8, ..., 56: the 1-norm of X up to which degree m is
#: accurate to unit roundoff, from the relative bound sum_{j > m} x^j / j <=
#: 2^-53 (-log(1 - x)) on the remainder at x = |X|_1 (the form of Higham,
#: Functions of Matrices, SIAM 2008, sec. 11.4), solved at 60 digits and
#: rounded down to six digits.  The top theta is log_principal's root
#: threshold
_LOG_TAYLOR_THETA = {4: 1.53493e-4, 8: 0.0133249, 12: 0.0578566, 16: 0.119727,
                     20: 0.184649, 24: 0.246082, 28: 0.301835, 32: 0.351591,
                     36: 0.395744, 40: 0.434913, 44: 0.46974, 48: 0.500814,
                     52: 0.528654, 56: 0.5537}
_LOG_THETAS = np.array(list(_LOG_TAYLOR_THETA.values()))
_LOG_ROOT = _LOG_THETAS[-1]

#: the truncated Taylor series T_m of exp, of degree m = 4, 8, ..., 32
#: (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011, sec. 3): the 1-norm
#: of X up to which T_m(X) = exp(X + dX) with |dX|_1 <= 2^-53 |X|_1, from the
#: bound sum_k |c_k| |X|_1^k / |X|_1 <= 2^-53 on the series log(e^-x T_m(x))
#: = sum_{k > m} c_k x^k, solved at 60 digits on its first 150 terms and
#: rounded down to six digits
_TAYLOR_THETA = {4: 3.39716e-4, 8: 0.0499122, 12: 0.299615, 16: 0.780287,
                 20: 1.43825, 24: 2.21904, 28: 3.084, 32: 4.00756}
_TAYLOR_DEGREES, _TAYLOR_THETAS = (np.array(a) for a in zip(*_TAYLOR_THETA.items()))

#: j! rounded once, for j = 0, ..., 32: expm_grid divides tau^j by it, one
#: rounding where a product with a rounded 1/j! takes two
_FACTORIAL = np.array([float(math.factorial(j)) for j in range(_TAYLOR_DEGREES[-1] + 1)])

#: the coefficients c_j of the two Taylor sums, (-1)^(j+1) / j for log(I + X)
#: and 1/j! for exp, with c_0 = 0 in both (expm adds exp's I after the sum),
#: and their Paterson-Stockmeyer blocks: row i of _LOG_BLOCK holds c_4i, ...,
#: c_(4i+3), those of I, X, X^2, X^3 in block B_i, and _LOG_TOP[i] is
#: c_(4i+4), that of the X^4 which tops a sum of i + 1 blocks; the same for
#: _EXP_BLOCK and _EXP_TOP
_LOG_COEF = np.array([0.0] + [(-1) ** (j + 1) / j for j in range(1, 4 * len(_LOG_THETAS) + 1)])
_LOG_BLOCK, _LOG_TOP = _LOG_COEF[:-1].reshape(-1, 4), _LOG_COEF[4::4]
_EXP_COEF = np.concatenate([[0.0], 1 / _FACTORIAL[1:]])
_EXP_BLOCK, _EXP_TOP = _EXP_COEF[:-1].reshape(-1, 4), _EXP_COEF[4::4]

#: square roots per entry, and Denman-Beavers steps per root, at most: a
#: root converges in far fewer steps, but the nilpotent part of a non-normal
#: matrix only halves with each root, so 64 may leave it beyond _LOG_ROOT
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
        so far replaced by benign: X itself, not a copy, while none has
        failed."""
        if self.bad is None or not self.bad.any():
            return X
        bad = self.bad.reshape(self.bad.shape + (1,) * (np.ndim(X) - self.bad.ndim))
        return np.where(bad, benign, X)


def _norm1(X) -> np.ndarray:
    """Matrix 1-norm of each matrix of a stack (0 for a 0 x 0 matrix)."""
    return np.abs(X).sum(axis=-2).max(axis=-1, initial=0.0)


def _flat_stack(X) -> np.ndarray:
    """A stack (..., k, k) as a stack (N, k, k) of its N matrices, also for
    k = 0, where reshape(-1, k, k) cannot tell N."""
    return X.reshape((math.prod(X.shape[:-2]),) + X.shape[-2:])


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


def _taylor_ps(X, top, block, top_coef) -> np.ndarray:
    """The Taylor sum sum_{j <= m} c_j X^j for each matrix X of a stack, of
    degree m = 4r for an entry whose top block (top) is r - 1, by
    Paterson-Stockmeyer (SIAM J. Comput. 2, 1973) in blocks of four terms,

        B_0 + X^4 (B_1 + ... + X^4 (B_(r-1) + c_m X^4)),

    with B_i = c_4i I + c_(4i+1) X + c_(4i+2) X^2 + c_(4i+3) X^3, from the
    coefficient rows block[i] = c_4i, ..., c_(4i+3) and top_coef[i] = c_(4i+4)
    (_LOG_BLOCK and _LOG_TOP, _EXP_BLOCK and _EXP_TOP).  Each entry takes
    three matmuls for X^2, X^3 and X^4, r - 1 Horner steps, and one
    contraction of fixed length 4 with its powers per block; no solve.  The
    entries are taken fewest blocks first, so that those in a Horner step
    are a trailing slice of the stack, and an entry comes out as it would
    alone.  A real stack is summed in real arithmetic."""
    k = X.shape[-1]
    Xs = _flat_stack(X)
    N = len(Xs)
    top = np.ravel(top).tolist()
    order = None
    if top != sorted(top):
        order = np.argsort(top, kind="stable")
        Xs, top = Xs[order], sorted(top)
    P = np.empty((N, 4, k, k), dtype=np.result_type(X, float))
    P[:, 0] = np.eye(k)
    P[:, 1] = Xs
    np.matmul(P[:, 1], P[:, 1], out=P[:, 2])
    np.matmul(P[:, 2], P[:, 1], out=P[:, 3])
    X4 = P[:, 2] @ P[:, 2]
    L = top_coef[top, None, None] * X4
    Pf, Lf = P.reshape(N, 4, k * k).view(float), L.reshape(N, k * k).view(float)
    for i in range(top[-1] if top else -1, -1, -1):
        # the entries from `more` on have a block above i, from `this` on block i
        more, this = bisect.bisect_left(top, i + 1), bisect.bisect_left(top, i)
        if more < N:
            L[more:] = L[more:] @ X4[more:]
        Lf[this:] += block[i] @ Pf[this:]
    if order is not None:
        L[order] = L.copy()
    return L.reshape(X.shape)


def log_principal(Z, X, tol: float, checks: Checks) -> np.ndarray:
    """Principal log of each matrix Z of a stack (..., m, m), given X = Z - I.

    Inverse scaling and squaring (Al-Mohy and Higham, SIAM J. Sci. Comput.
    34(4), 2012): log Z = 2^k log(I + X_k) with X_k = Z^(1/2^k) - I, k the
    fewest Denman-Beavers square roots that bring |X_k|_1 within _LOG_ROOT,
    then the Taylor sum of log(I + X_k) of the least degree whose theta
    bounds |X_k|_1 (_taylor_ps: matmuls only).  An entry within _LOG_ROOT
    of I takes no root, and a stack of such entries no solve and no inverse.
    X is a parameter so that a caller that has it more accurately than
    Z - I keeps that accuracy (a Z = I + X with X of order s, formed with no
    cancellation, as the small-t symbol will be): each root forms X_(k+1) =
    (Z^(1/2^(k+1)) + I)^-1 X_k, with no cancellation, and an entry comes out
    as it would alone.  A real stack stays real: its roots and its
    sum run in real arithmetic.

    Checks: Z must be finite (NonSquare), no eigenvalue may sit on or
    numerically hug the closed negative real half-line (BranchCut), and
    _MAX_STEPS roots must bring |X_k|_1 within _LOG_ROOT (DegenerateTime).
    """
    op = "mat_log_principal"
    m = Z.shape[-1]
    I = np.eye(m)
    checks(~np.isfinite(Z).all(axis=(-2, -1)), NonSquare,
           "matrix has non-finite entries", module=_MOD, operation=op)
    Z, X = checks.clean(Z, I), checks.clean(X, 0)
    norm = np.array(_norm1(X))
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
    need = norm > _LOG_ROOT
    if need.any():
        # the roots replace entries in place, in copies of Z and X
        dtype = np.result_type(Z, X, float)
        Z, X = Z.astype(dtype), X.astype(dtype)
    for _ in range(_MAX_STEPS):
        if not need.any():
            break
        Z[need] = _sqrt_db(Z[need])
        # sqrt(Z) - I = (sqrt(Z) + I)^-1 (Z - I), with no cancellation
        X[need] = np.linalg.solve(Z[need] + I, X[need])
        norm[need] = _norm1(X[need])
        roots += need
        need &= norm > _LOG_ROOT
    checks(need, DegenerateTime, lambda i: f"|Z^(1/2^k) - I|_1 = {norm.flat[i]:.3e} "
           f"exceeds {_LOG_ROOT} after {_MAX_STEPS} square roots", module=_MOD, operation=op)
    X, norm = checks.clean(X, 0), checks.clean(norm, 0)
    top = np.searchsorted(_LOG_THETAS, norm)
    return _taylor_ps(X, top, _LOG_BLOCK, _LOG_TOP) * 2.0 ** roots[..., None, None]


def mat_log_principal(A) -> np.ndarray:
    """Principal matrix logarithm of a matrix, or of each matrix of a stack
    (..., m, m): square roots until |A - I|_1 <= 0.5537, then a truncated
    Taylor sum of log(I + X) evaluated with matmuls only; see log_principal.

    Raises BranchCut when an eigenvalue sits on (or, at DEFAULT_TOL, hugs)
    the closed negative real half-line, where the principal branch is
    ill-defined.
    """
    A = as_square(A, operation="mat_log_principal")
    return log_principal(A, A - np.eye(A.shape[-1]), DEFAULT_TOL, Checks())


def _add_identity(S, c) -> np.ndarray:
    """S + c I for each matrix of a stack, formed in S (or in a contiguous
    copy) and returned: only the diagonal is added to, so an off-diagonal
    -0.0 stays -0.0 where S + c I gives +0.0."""
    S = np.ascontiguousarray(S)
    k = S.shape[-1]
    S.reshape(S.shape[:-2] + (k * k,))[..., ::k + 1] += c
    return S


def _degree_and_squarings(x) -> tuple[np.ndarray, np.ndarray]:
    """(i, s) for each 1-norm x of a Taylor exponential's argument: degree
    m = 4 (i + 1), the least of _TAYLOR_THETA with x <= theta_m, else degree
    32 on the argument over 2^s, with s the fewest halvings that bring x
    within theta_32, and s squarings after.  A non-finite x takes no
    halving."""
    i = np.searchsorted(_TAYLOR_THETAS, x)
    big = (i == len(_TAYLOR_THETAS)) & np.isfinite(x)
    s = np.zeros(np.shape(x), dtype=int)
    s[big] = np.ceil(np.log2(x[big] / _TAYLOR_THETAS[-1]))
    return np.minimum(i, len(_TAYLOR_THETAS) - 1), s


def _square(E, s) -> np.ndarray:
    """E (N, k, k) with its entry j squared s[j] times, in place."""
    for j in range(s.max(initial=0)):
        i = np.flatnonzero(s > j)
        E[i] = E[i] @ E[i]
    return E


def expm(X) -> np.ndarray:
    """exp of a real or complex matrix, or of each matrix of a stack (..., m, m),
    by scaling and squaring a truncated Taylor sum (Al-Mohy and Higham, SIAM
    J. Sci. Comput. 33(2), 2011).

    Each entry takes its degree and squarings from its 1-norm
    (_degree_and_squarings).  The terms past the identity are summed for the
    whole stack in one Paterson-Stockmeyer pass (_taylor_ps: matmuls only,
    no solve), and I is added after, as in expm_grid.  An entry comes out as
    it would alone; a non-finite entry comes out non-finite.
    """
    X = np.asarray(X)
    A = _flat_stack(X).astype(np.result_type(X, float), copy=False)
    top, s = _degree_and_squarings(_norm1(A))
    if s.any():
        A = A * 2.0 ** -s[:, None, None]
    E = _add_identity(_taylor_ps(A, top, _EXP_BLOCK, _EXP_TOP), 1)
    # an entry whose exponential overflows squares to inf or nan, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        return _square(E, s).reshape(X.shape)


def expm_grid(B, t) -> np.ndarray:
    """exp(t_k B) of one real or complex matrix B (k, k) at each time t_k of
    a time or an array of times t, stacked over t, by truncated Taylor sums
    on one set of powers (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2),
    2011).

    The powers A^j of A = B / 2^e, 2^e the least power of two above |B|_1,
    are formed once: the scaling is exact and |A^j|_1 < 1.  Each entry takes
    expm's degree m and squarings s for the 1-norm |t_k| |B|_1
    (_degree_and_squarings).  The terms past the identity, tau^j / j! A^j
    with tau = t_k 2^(e - s), are summed from the highest degree down, the
    smallest first, and I is added after, in one rounding: I inside the sum
    would round every entry near it to I's scale.  The entries of one degree
    take one broadcast matmul, a (1 x m)(m x k^2) product per entry (on the
    real and imaginary parts side by side), so an entry comes out as it
    would alone.  No solve.  An entry with |t_k| |B|_1 not finite comes out
    nan.
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
    pick, s = _degree_and_squarings(np.where(finite, x, 0))
    degree = _TAYLOR_DEGREES[pick]
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
    E = _square(_add_identity(E.view(A.dtype).reshape(tf.size, k, k), 1), s)
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


def mat_cos(A) -> np.ndarray:
    """cos(A) = (exp(iA) + exp(-iA)) / 2, from one expm on the stack of +-iA."""
    A = as_square(A, operation="mat_cos")
    E = expm(np.stack([1j * A, -1j * A]))
    return (E[0] + E[1]) / 2


@dataclass
class BranchTrackedScalar:
    """The branch of s -> sqrt(det cos(s J Q)) continuous from 1 at s = 0,
    evaluated at s = path_parameter (value and path_parameter are arrays
    when path_parameter is a grid of times).

    steps_used is always 0: the branch is a closed form, not a path walk.  The
    field is kept for its reader, bench/spans.py, which sums it into a
    per-op counter.
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
    A = _flat_stack(A)
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
    if m:  # the last 2 x 2 block leaves no pivot to choose; Pf of 0 x 0 is 1
        pf *= A[:, m - 2, m - 1]
    return np.where(zero, 0j, pf).reshape(batch)[()]


def cos_sin_sqrt_det(Q, t, *, tol: float = DEFAULT_TOL
                     ) -> tuple[np.ndarray, np.ndarray, complex]:
    """cos(tJQ), sin(tJQ) and sqrt(det cos(tJQ)) on the branch continuous in
    t from 1 at t = 0, for Q complex symmetric, or a stack of them
    (..., 2n, 2n), and a time t or an array of times, broadcast against the
    stack: the results are stacked over the broadcast shape.

    cos and sin are (E + E^-1) / 2 and (E - E^-1) / 2i for E = exp(itJQ),
    with E^-1 = exp(-itJQ) = J^T E^T J (symplectic_inverse): one expm call on
    the stack of itJQ gives both at every entry.  J cos(tJQ) = (JE - (JE)^T)
    / 2 is then skew-symmetric to the last bit, so Pf(J cos(tJQ)) / Pf(J)
    squares to det cos(tJQ); being a polynomial in the entries that equals 1
    at t = 0, it is that branch (Hormander, Math. Z. 219, 1995).  cos
    vanishes only on the real axis, so det cos(sJQ) has a zero for some s in
    (0, t] exactly when JQ has a real eigenvalue lambda with t |lambda| >=
    pi/2; that is reported as ConjugatePointOnPath, with index the entry's
    position in the broadcast shape (a negative time's, in t).  One
    eigvals(JQ) per form serves every t, and none is taken where
    max t max |JQ|_1 (1 + 2 rounding_allowance(2n)) < pi/2 certifies the
    whole stack, since |lambda| <= |JQ|_1.  An entry's cos and sin come out
    as they would alone; its root may differ in the last bit (pfaffian).
    """
    from .quadform import standard_J  # local import to avoid a cycle

    op = "cos_sin_sqrt_det"
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
    # the time of each entry
    ts = np.broadcast_to(t, np.broadcast_shapes(t.shape, JQ.shape[:-2]))
    # |lambda| <= |JQ|_1, and eigvals' rounding stays within the allowance:
    # below pi/2 for the whole stack (a nan compares false), no entry can
    # meet a conjugate point
    if not (t.max(initial=0.0) * _norm1(JQ).max(initial=0.0)
            * (1 + 2 * rounding_allowance(2 * n)) < np.pi / 2):
        lam = np.linalg.eigvals(JQ)
        real = np.abs(lam.imag) <= tol * np.abs(lam)
        # float products are monotone, so t * max|lambda| >= pi/2 exactly when
        # t |lambda| >= pi/2 for some real eigenvalue lambda
        reach = t * np.where(real, np.abs(lam), 0).max(axis=-1)

        def conjugate_point(i):
            lam_i, real_i = (np.broadcast_to(a, reach.shape + lam.shape[-1:])
                             .reshape(-1, 2 * n)[i] for a in (lam, real))
            hit = real_i & (ts.flat[i] * np.abs(lam_i) >= np.pi / 2)
            return (f"det cos vanishes on the path: real eigenvalue "
                    f"{lam_i[hit][0].real:.6g} of JQ at t = {ts.flat[i]:.6g}")

        check(reach >= np.pi / 2, ConjugatePointOnPath, conjugate_point, module=_MOD,
              operation=op)
    with np.errstate(over="ignore", invalid="ignore"):
        E = expm(1j * (t[..., None, None] * JQ))
        Einv = symplectic_inverse(E)
        C, S = (E + Einv) / 2, (E - Einv) / 2j
    check(~np.isfinite(C).all(axis=(-2, -1)), DegenerateTime,
          lambda i: f"cos(tJQ) overflows at t = {ts.flat[i]:.6g}", module=_MOD, operation=op)
    # Pf(J) = (-1)^(n(n-1)/2) for J = [[0, I], [-I, 0]]
    return C, S, pfaffian(J @ C) / (-1) ** (n * (n - 1) // 2)


def sqrt_det_cos_tracked(Q, t) -> BranchTrackedScalar:
    """sqrt(det cos(t J Q)) on the branch continuous in t from 1 at t = 0;
    see cos_sin_sqrt_det."""
    value = cos_sin_sqrt_det(Q, t)[2]
    return BranchTrackedScalar(value, np.asarray(t, dtype=float)[()], 0)


def _power_of_two(big: float) -> float:
    """2^e, the power of two at or below big = max |X_ij| when that is above 1
    and finite, else 1 (smaller entries cannot overflow, and an inf or nan
    entry is left as it is): X / 2^e is exact, with no entry above 2."""
    return 2.0 ** (math.frexp(big)[1] - 1) if 1 < big < math.inf else 1.0


def frobenius(X) -> float:
    """|X|_F of one matrix, as |X / 2^e|_F 2^e with 2^e of _power_of_two.
    The scaling is exact, so this is np.linalg.norm(X) wherever that is
    finite, and it overflows only where |X|_F does, not where np.linalg.norm
    squares entries above 1e154."""
    s = _power_of_two(float(np.abs(X).max(initial=0.0)))
    return float(np.linalg.norm(X / s)) * s


def relative_distance(X, Y):
    """|X - Y|_F / max(1, |Y|_F) of two matrices, or of each pair of two
    stacks (..., m, m), on X / 2^e and Y / 2^e, 2^e of _power_of_two on the
    pair's largest entry: exact, and quiet, with no overflow near float range
    (inf past it, and nan or inf for a pair with an inf or nan entry)."""
    X, Y = np.asarray(X), np.asarray(Y)
    axes = None if X.ndim == Y.ndim == 2 else (-2, -1)  # one matrix: numpy's dot path
    big = np.maximum(np.abs(X).max(axis=(-2, -1), initial=0.0),
                     np.abs(Y).max(axis=(-2, -1), initial=0.0))
    s = np.array([_power_of_two(b) for b in big.ravel().tolist()]).reshape(big.shape)
    S = s[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.linalg.norm(X / S - Y / S, axis=axes)
                / np.maximum(1 / s, np.linalg.norm(Y / S, axis=axes)))[()]


def rounding_allowance(m: int) -> float:
    """2 (m + 1)^2 u, u = 2^-53: the relative room a certificate leaves for
    the rounding of an m x m matrix's Cholesky factorization
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
    2002, Thm 10.3), of its Frobenius norm (relative error below m^2 u / 2),
    and of the eigenvalues and singular values LAPACK computes (error
    p(m) u |H|_2, p(m) a modest function of m, here taken below
    (m + 1)^2 / 2)."""
    return 2 * (m + 1) ** 2 * 2.0 ** -53


def lambda_min_exceeds(H, rel: float) -> bool:
    """Whether one stacked Cholesky factorization proves, for each matrix of
    a stack H (..., m, m), real symmetric, that eigvalsh finds lambda_min(H)
    > rel |H|_2: a certificate, never a refusal.  It is the library's one
    certificate in front of a positivity rule (mehler.check_integrable,
    evolve.op_norm_1_inf); where it fails, the rule decides.

    The factorization is of H - s I for the shift s = f + a (|H|_F + |f|),
    a = rounding_allowance(m), from the floor f = rel |H|_F for rel >= 0 and
    f = rel |H|_F / m^(1/2) for rel < 0: |H|_2 lies between |H|_F / m^(1/2)
    and |H|_F, so f is at or above rel |H|_2 either way, and the decision is
    the same for H and 2^k H short of underflow and overflow.  Where the factorization runs to completion,
    R^T R = G + dG for the rounded G = H - s I with |dG|_2 <= (m + 1) u
    trace G to first order (Higham, Thm 10.3, and |R|_2^2 <= trace R^T R),
    so lambda_min(H) >= s - (m + 1) u (m^(1/2) |H|_F + m |s|) - u (|H|_F +
    |s|); a exceeds that loss plus eigvalsh's error and the rounding of |H|_F
    in the floor.  A shift that is not finite (H not finite, or |H|_F
    overflowing) proves nothing.
    """
    H = np.array(H, dtype=float)
    if H.size == 0:
        return False
    m = H.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        F = np.sqrt(np.einsum("...ij,...ij->...", H, H))
        floor = rel * F if rel >= 0 else rel * F / math.sqrt(m)
        shift = floor + rounding_allowance(m) * (F + np.abs(floor))
    if not np.isfinite(shift).all():
        return False
    try:
        np.linalg.cholesky(_add_identity(H, -shift[..., None]))
    except np.linalg.LinAlgError:
        return False
    return True

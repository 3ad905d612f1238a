"""Reference computations that the tests compare the library against, and
that no command or pipeline stage of the library needs.

    from oracles import conjugate_by_linear, mp_disperse, mp_expm, twisted_kernel

pytest puts this directory on sys.path, so a test module imports it by name.
The mpmath references return mpmath matrices: a caller keeps working at its
precision and rounds to doubles (to_complex) as its own last step.
"""
from fractions import Fraction

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


def _mp_gaussian_integral(K, b, m: int):
    """(c, S, l) with int exp(-z.Kz/2 + b.z) dw = c exp(-r.Sr/2 + l.r) over the
    last m coordinates w of z = (r, w), for K (an object array of mpmath
    numbers) complex symmetric with W = K_ww of positive-definite real part:
    S = K_rr - K_rw W^-1 K_wr, l = b_r - K_rw W^-1 b_w and c = (2 pi)^{m/2}
    exp(b_w.W^-1 b_w / 2) / sqrt(det W), the root the product of the principal
    roots of W's eigenvalues (all in Re > 0)."""
    r = len(b) - m
    W = mpmath.matrix(K[r:, r:].tolist())
    Wi = np.array(mpmath.inverse(W).tolist(), dtype=object)
    lam = [W[0, 0]] if m == 1 else mpmath.eig(W, left=False, right=False)
    V = K[:r, r:] @ Wi
    c = ((2 * mpmath.pi) ** (mpmath.mpf(m) / 2) * mpmath.exp(b[r:] @ Wi @ b[r:] / 2)
         / mpmath.fprod(mpmath.sqrt(x) for x in lam))
    return c, K[:r, :r] - V @ K[r:, :r], b[:r] - V @ b[r:]


def mp_disperse(K, b, D, t, n: int, dps: int = 40):
    """(c, K', b') of exp(i t D grad.grad), D real n x n acting as sym D, on
    the last n coordinates y of exp(-z.Kz/2 + b.z), z = (x, y), for K complex
    symmetric with K_yy of positive-definite real part: the result is
    c exp(-z.K'z/2 + b'.z).  The Fourier round trip at dps digits, with no
    closed form: K_yy integrated against exp(-i eta.y), the multiplier
    exp(-i t D eta.eta), and eta integrated back against (2 pi)^-n
    exp(i eta.y), each integral's root the product of the principal roots of
    its block's eigenvalues.  c is an mpc, K' and b' mpmath matrices."""
    with mpmath.workdps(dps):
        K = np.array(_mp(K).tolist(), dtype=object)
        b = np.array([mpmath.mpc(x) for x in np.asarray(b).tolist()], dtype=object)
        D = np.array(_mp(D).tolist(), dtype=object)
        r = len(b) - n
        I = np.diag([mpmath.mpc(1)] * n).astype(object)  # (x, eta, y), then (x, y, eta)
        c = (2 * mpmath.pi) ** -n
        for sign, mult in ((1j, 0 * I), (-1j, 1j * mpmath.mpf(t) * (D + D.T))):
            K2 = np.full((r + 2 * n, r + 2 * n), mpmath.mpc(0), dtype=object)
            K2[:r, :r], K2[:r, r + n:], K2[r + n:, :r] = K[:r, :r], K[:r, r:], K[r:, :r]
            K2[r + n:, r + n:] = K[r:, r:] + mult
            K2[r:r + n, r + n:] = K2[r + n:, r:r + n] = sign * I
            pf, K, b = _mp_gaussian_integral(K2, np.concatenate([b[:r], 0 * b[r:], b[r:]]), n)
            c *= pf
        return c, mpmath.matrix(K.tolist()), mpmath.matrix(b.tolist())


def to_complex(M: mpmath.matrix) -> np.ndarray:
    """An mpmath matrix rounded to complex doubles."""
    return np.array(M.tolist(), dtype=complex)


def exact_singular_dims(q: QuadraticForm) -> tuple[int, int]:
    """(dim S, k0) of q's stored entries in exact rational arithmetic.

    Each double is a fraction, so the levels Re Q (Im F)^l, F = JQ, are exact,
    and Gaussian elimination adds one level's rows at a time to an echelon
    basis of the rows so far: the rank of each prefix stack.  The
    rank stops growing at the first level that adds none, the level k0 + 1
    (Hitrik and Pravda-Starov, Math. Ann. 344, 2009).
    """
    n, m = q.n, 2 * q.n
    re = [[Fraction(x) for x in row] for row in q.Q.real.tolist()]
    im = [[Fraction(x) for x in row] for row in q.Q.imag.tolist()]
    imF = im[n:] + [[-x for x in row] for row in im[:n]]  # J Im Q, J = [[0, I], [-I, 0]]
    pivots = {}  # column -> row with a 1 there and 0 at the earlier pivots
    level, ranks = re, []
    while len(ranks) < 2 or m > ranks[-1] > ranks[-2]:
        for row in level:
            for c, p in pivots.items():
                if row[c]:
                    row = [a - row[c] * b for a, b in zip(row, p)]
            c = next((j for j, a in enumerate(row) if a), None)
            if c is not None:
                pivots[c] = [a / row[c] for a in row]
        ranks.append(len(pivots))
        level = [[sum(a * b for a, b in zip(row, col)) for col in zip(*imF)] for row in level]
    return m - ranks[-1], ranks.index(ranks[-1])

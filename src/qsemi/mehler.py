"""Gaussian symbols and kernels for quadratic semigroups.

Symbols: exp(-t q^w) acts, when det cos(tJQ) != 0, as c (e^{-m})^w with
c = det cos(tJQ)^{-1/2} (on the branch continuous from 1 at t = 0, a
Pfaffian; see matfun.cos_sin_sqrt_det) and m the form of J^{-1} tan(tJQ).

Kernels: whenever the xi-xi block B of m has positive-definite real part,
(e^{-m})^w has the kernel g(x, y) = c exp(-K(x, y).(x, y)/2), stored as the
prefactor c and the complex symmetric K on the stacked variable (x, y).

Gaussian integrals: kernel synthesis (over xi), composition (the middle
variable) and, in evolve, kernel application (y) each integrate one block
through gaussian_integral.  Its prefactor's sqrt(det W) (_sqrt_det) takes no
eigenvalues: the branch comes from one batched slogdet of the even-order
leading minors of W.  Its one decision, check_integrable (not_integrable,
reported), is also the only integrability test of sqrt_det_pd, of disperse
and of evolve's Gaussian states.  The dispersion factor exp(i t D grad.grad)
needs no integral: it adds X = 2it sym D to the covariance K_yy^-1, and
disperse writes the result in closed form from one solve of I + K_yy X.  Its
prefactor is sqrt(det K'_yy / det K_yy), both roots _sqrt_det's: K_yy^-1 +
sX has a positive-definite real part for every s, a convex set on which
det != 0, so the branch is the one continuous from c = 1 at X = 0.
The twisted factors act on a kernel in covariance form (twisted_sandwich),
with no kernel of order 1/eps; inverse_twisted writes them as evolutions in
closed form from one SVD of N, with no matrix log, expm or eigenvalues.

Sweeps: mehler_symbol and kernel_from_symbol take a whole grid of times at
once and return symbols and kernels stacked over it; stacked_symbol takes a
stack of forms too, broadcast against the times (verify_decomposition's p_t
and q at one t).  The stack is one computation: the conjugate points of
every t are decided at once, by one bound max t |JQ|_1 < pi/2 where that
certifies the stack and otherwise by one eigvals(JQ) per form, one
matfun.expm call on the stack of itJQ gives cos(tJQ) and sin(tJQ) at every
entry (with exp(-itJQ) = J^T exp(itJQ)^T J), and the Pfaffian, the tan
solve, the kernel blocks and every positivity check run on the stack.
kernel_right_transport, which only verify_decomposition applies, takes
e^{-tM} from its caller, which forms it with the oracle's exponential
(scipy.linalg.expm); this module calls no scipy.  This symbol route serves
the mehler, kernel and evolve commands and verify_decomposition, whose
oracle it stays.

Norms: flow_kernel gives the kernels of a sweep straight from the flow
exp(-2itJQ), with the modulus |c| for the prefactor, from its midpoint:
exp(itJQ) at every time from one matfun.expm_grid call, whose Taylor sums
share the powers of iJQ (the symbol route's stack of itJQ takes expm), then
one slogdet and one solve of the rows of exp(-itJQ) and its inverse, both
read off exp(itJQ)'s blocks, so that the kernel sees the growth of
exp(-itJQ) and not of its square.  A sweep of T times holds at most four
stacks of T (2n)^2 complex numbers at once: each is dropped once read.
evolve.norm_sweep, and so the norms and exponents commands, take their
kernels from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConjugatePointOnPath,
    DegenerateTime,
    DimensionMismatch,
    NonIntegrableComposition,
    NonIntegrableSymbol,
    SeriesRegimeViolated,
)
from .matfun import (
    DEFAULT_TOL,
    Checks,
    cos_sin_sqrt_det,
    expm_grid,
    frobenius,
    identity,
    lambda_min_exceeds,
    relative_distance,
    rounding_allowance,
    shared_constant,
)
from .quadform import QuadraticForm, block_decompose, standard_J

_MOD = "mehler"


@dataclass
class MehlerSymbol:
    """Symbol data (c, M, t): exp(-t q^w) = c (e^{-m})^w with m(X) = MX.X.

    Over a grid of T times, c, M and t are stacked: shapes (T,), (T, 2n, 2n)
    and (T,); stacked_symbol stacks c and M over its forms too.
    """
    n: int
    c: complex
    M: np.ndarray
    t: float


@dataclass
class GaussianKernel:
    """Kernel g(x, y) = c * exp(-K(x,y).(x,y)/2) on the stacked variable.

    Kernels at a grid of T times are stacked: c of shape (T,), K of shape
    (T, 2n, 2n); indexing picks one, and evaluation by calling takes a
    single kernel.
    """
    n: int
    c: complex
    K: np.ndarray

    def __call__(self, x, y) -> complex:
        z = np.concatenate([np.atleast_1d(x), np.atleast_1d(y)]).astype(complex)
        return self.c * np.exp(-0.5 * z @ self.K @ z)

    def __getitem__(self, i) -> "GaussianKernel":
        return GaussianKernel(self.n, self.c[i], self.K[i])


@dataclass
class KernelDiagnostics:
    """The (P, V, M, N) matrices of the real-part normal form of a kernel.

    Re k(x, y) = v((x+y)/2) + p(Mleft x - Nright y) with p of matrix P and
    v of matrix V; Ker V has the dimension of the singular space.
    """
    P: np.ndarray
    V: np.ndarray
    Mleft: np.ndarray
    Nright: np.ndarray


#: positive-definiteness is judged relative to the block scale so that
#: legitimately tiny smoothing blocks (order t^(2 k0 + 1)) are not rejected,
#: while exact zeros (graph condition failing) always are
_PD_RELATIVE = 1e-12


def _sym_re(W) -> np.ndarray:
    """H = sym Re W = Re W/2 + Re W^T/2 of each block of a stack W (..., m, m)."""
    H = np.asarray(W).real / 2
    return H + H.mT


def not_integrable(W) -> tuple[np.ndarray, np.ndarray]:
    """The one integrability decision: mask of the blocks W (..., m, m) whose
    int exp(-Wz.z/2) dz is taken to diverge, lambda_min(H) <= _PD_RELATIVE
    |H|_2 for H = sym Re W, and that lambda_min."""
    lam = np.linalg.eigvalsh(_sym_re(W))  # |H|_2 = max |lam|
    return lam[..., 0] <= _PD_RELATIVE * np.abs(lam).max(axis=-1), lam[..., 0]


def check_integrable(W, error, *, module: str, operation: str, what: str,
                     checks: Checks | None = None) -> None:
    """Fail, as error from module.operation, the blocks of W, named `what`,
    that not_integrable flags: Checks(), the default, raises at the first.

    A stack that one Cholesky factorization certifies, lambda_min(H) >
    _PD_RELATIVE |H|_2 (matfun.lambda_min_exceeds), passes with no
    eigenvalues; any other stack is decided by not_integrable, whole."""
    if lambda_min_exceeds(_sym_re(W), _PD_RELATIVE):
        return
    bad, lam = not_integrable(W)
    (checks or Checks())(bad, error, lambda i: f"{what} must have positive-definite "
                         f"real part (lambda_min = {lam.flat[i]:.3e})",
                         module=module, operation=operation)


@shared_constant
def _leading_minors(m: int) -> np.ndarray:
    """Mask (j, m, m) of the leading minor of order 2j + 2 (or m), j = 0, ...,
    (m - 1) // 2, of an m x m matrix."""
    h = np.arange(m) // 2  # index a is in minor j (order 2j + 2, or m) for j >= a // 2
    return np.maximum.outer(h, h) <= np.arange((m + 1) // 2)[:, None, None]


def _sqrt_det(W) -> np.ndarray:
    """sqrt(det W) of each complex symmetric block W (..., m, m) that
    not_integrable passes, on the branch continuous along Re W + is Im W
    from the positive root at s = 0 (the product of the principal roots of
    W's eigenvalues), with no eigenvalues: one batched slogdet of the
    leading minors W_2j of order 2, 4, ..., m, each padded with I.

    The ratio det W_2j / det W_2j-2 is the determinant of a 2 x 2 (or 1 x 1)
    Schur complement S, whose real part is positive-definite: for
    z = (-W_11^{-1} W_12 x, x), z*Wz = x*Sx, so Re x*Sx = z*(Re W)z > 0, as
    (W + W*)/2 = Re W.  The ratio's argument so stays in (-pi, pi) along the
    path, and the root is exp((log|det W| + i theta)/2) for theta the sum of
    the principal arguments of the ratios: arg det W less 2 pi per wrap.
    """
    W = np.asarray(W, dtype=complex)
    m = W.shape[-1]
    sign, logdet = np.linalg.slogdet(np.where(_leading_minors(m), W[..., None, :, :],
                                              identity(m)))
    phi = np.arctan2(sign.imag, sign.real)
    wraps = np.rint((phi[..., 1:] - phi[..., :-1]) / (2 * np.pi)).sum(axis=-1)
    return np.exp((logdet[..., -1] + 1j * (phi[..., -1] - 2 * np.pi * wraps)) / 2)[()]


def sqrt_det_pd(A) -> complex:
    """_sqrt_det of A (..., m, m): DimensionMismatch at the first matrix that
    is not square, finite and complex symmetric (relative_distance(A, A^T) <=
    1e-12, nan where A is not finite), then check_integrable, which raises
    NonIntegrableSymbol at the first failing matrix."""
    A = np.asarray(A, dtype=complex)
    op = "sqrt_det_pd"
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"A of shape {A.shape} is not a (stack of) square "
                                "matrices", module=_MOD, operation=op)
    Checks()(~(relative_distance(A, A.mT) <= 1e-12), DimensionMismatch,
             "matrix must be finite and complex symmetric", module=_MOD, operation=op)
    check_integrable(A, NonIntegrableSymbol, module=_MOD, operation=op, what="matrix")
    return _sqrt_det(A)


def gaussian_integral(K, b, m, error, *, module: str, operation: str, what: str,
                      checks: Checks | None = None):
    """(c, S, l) with int exp(-z.Kz/2 + b.z) dw = c exp(-r.Sr/2 + l.r) over
    the last m coordinates w of z = (r, w), K (..., d, d) and b (..., d) (or
    None, for 0) on one entry or a stack.  The integral sees only sym K =
    K/2 + K^T/2, so K stands for that below: for W = K_ww, S = K_rr - K_rw
    W^{-1} K_wr, l = b_r - K_rw W^{-1} b_w and c = (2 pi)^{m/2} det(W)^{-1/2}
    exp(b_w.W^{-1} b_w / 2), the root that of _sqrt_det (from the leading
    minors of W, with no eigenvalues).  The one decision, check_integrable
    on W, goes to checks: Checks() raises, a recording Checks keeps the
    failed entries, whose W becomes I; a c past float range is inf or nan.
    """
    K = K / 2 + K.mT / 2
    r, I = K.shape[-1] - m, identity(m)
    b = np.zeros(K.shape[:-1]) if b is None else b
    checks = Checks() if checks is None else checks
    check_integrable(K[..., r:, r:], error, module=module, operation=operation,
                     what=what, checks=checks)
    W = checks.clean(K[..., r:, r:], I)
    X = np.linalg.solve(W, np.concatenate([K[..., r:, :r], b[..., r:, None]], axis=-1))
    S = K[..., :r, :r] - K[..., :r, r:] @ X[..., :r]
    l = b[..., :r] - (K[..., :r, r:] @ X[..., r:])[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        c = ((2 * np.pi) ** (m / 2) / _sqrt_det(W)
             * np.exp(np.sum(b[..., r:] * X[..., r], axis=-1) / 2))
    return c, (S + S.mT) / 2, l


def mehler_symbol(q: QuadraticForm, t) -> MehlerSymbol:
    """Symbol of exp(-t q^w): prefactor 1/sqrt(det cos(tJQ)) and form of
    J^{-1} tan(tJQ), on the determinant branch continuous from t = 0.

    t may be an array of times: c, M and t are then stacked over it.  A
    failure names the first failing t, at QsemiError.index.  This is
    stacked_symbol of the one form q.Q, at its tolerance q.tol.
    """
    return stacked_symbol(q.Q, t, tol=q.tol)


def stacked_symbol(Q, t, *, tol: float = DEFAULT_TOL) -> MehlerSymbol:
    """mehler_symbol of each form of a stack Q (..., 2n, 2n), complex
    symmetric with Re Q >= 0 (as QuadraticForm keeps them), at a time or an
    array of times t broadcast against the stack: c and M are stacked over
    the broadcast shape, t is kept as given, and a failure's index is a
    position in that shape (a negative time's, in t).

    One matfun.cos_sin_sqrt_det pass gives cos, sin and the root at every
    entry, then one stacked solve the tangents.  An entry's M comes out as it
    would alone, its c up to the last bit of the Pfaffian root.
    """
    t = np.asarray(t, dtype=float)
    Checks()(t < 0, DegenerateTime, "t must be nonnegative", module=_MOD,
             operation="mehler_symbol")
    try:
        C, S, root = cos_sin_sqrt_det(Q, t, tol=tol)
    except ConjugatePointOnPath as exc:
        raise DegenerateTime(str(exc), module=_MOD, operation="mehler_symbol",
                             index=exc.index) from exc
    n = C.shape[-1] // 2
    with np.errstate(over="ignore", invalid="ignore"):  # sin overflows first (x^2)
        M = standard_J(n).T @ np.linalg.solve(C, S)
        M = (M + M.mT) / 2
    Checks()(~np.isfinite(M).all(axis=(-2, -1)), DegenerateTime, lambda i: "the symbol "
             f"is not finite at t = {np.broadcast_to(t, M.shape[:-2]).flat[i]:.6g}",
             module=_MOD, operation="mehler_symbol")
    # the zero symbol, without the signed zeros of the solve
    M = np.where((t == 0)[..., None, None], 0, M)
    return MehlerSymbol(n, 1.0 / root, M, t[()])


@shared_constant
def _synthesis(n: int) -> tuple:
    """(rows, cols, weights, phase) of kernel_from_symbol at n: the index
    map and weights that take m to ((x + y)/2, xi) on (x, y, xi), and the
    phase i (x - y).xi."""
    ix, w = np.r_[:n, :n, n:2 * n], np.repeat([1.0, 1.0, 2.0], n)
    return (ix[:, None], ix, np.outer(w, w),
            1j * np.kron([[0, 0, -1], [0, 0, 1], [-1, 1, 0]], np.eye(n)))


def kernel_from_symbol(sym: MehlerSymbol) -> GaussianKernel:
    """Gaussian kernel of sym.c * (e^{-m})^w, the gaussian_integral of
    (2 pi)^{-n} sym.c exp(i (x - y).xi - m((x + y)/2, xi)) over xi.

    Raises NonIntegrableSymbol exactly when the graph condition fails for the
    underlying form (degenerate Re B), in which case the operator has no
    locally integrable Gaussian kernel, and DegenerateTime where the kernel,
    of order 1/t, is not finite in floating point (t ~ 1e-310).  A symbol
    stacked over t gives the kernels stacked over t.
    """
    n = sym.n
    op = "kernel_from_symbol"
    rows, cols, weights, phase = _synthesis(n)
    K = sym.M[..., rows, cols] * weights / 2  # m at ((x + y)/2, xi)
    c, K, _ = gaussian_integral(K + phase, None, n,
                                NonIntegrableSymbol, module=_MOD, operation=op,
                                what="xi-xi block of the symbol")
    c = sym.c * (2 * np.pi) ** -n * c
    bad = ~(np.isfinite(c) & np.isfinite(K).all(axis=(-2, -1)))
    Checks()(bad, DegenerateTime, lambda i: "the kernel is not finite at t = "
             f"{np.broadcast_to(sym.t, bad.shape).flat[i]:.3g}", module=_MOD, operation=op)
    return GaussianKernel(n, c, K)


def _cosine_rule(L11, t, JQ, singular) -> tuple[np.ndarray, np.ndarray]:
    """(least cosine, scale) of flow_kernel's "B invertible" rule, B refused
    where cos <= _PD_RELATIVE scale, for each L11 = D B^-1 of a stack (k, n, n)
    at the times t (k,), singular marking the entries refused outright.

    sigma_max(L11) <= |L11|_F, |tJQ|_2 <= |tJQ|_F and the greatest cosine is
    at most 1: an entry that passes the rule on these bounds, with room for
    the rounding of both norms and of the SVDs (twice
    matfun.rounding_allowance), passes it on the singular values, and gets
    (1, 0) with no SVD.  Only the others take the SVDs of the rule.
    """
    n = L11.shape[-1]
    cos_min, scale = np.ones(t.shape), np.zeros(t.shape)
    with np.errstate(over="ignore"):  # a norm that overflows sends its entry to the SVDs
        fro = np.linalg.norm(L11, axis=(-2, -1))
    judge = singular | ~(1 / np.hypot(1, fro)
                         > _PD_RELATIVE * np.maximum(1, t * frobenius(JQ))
                         * (1 + 2 * rounding_allowance(2 * n)))
    if judge.any():
        a = np.linalg.svd(np.where(singular[judge, None, None], 0, L11[judge]),
                          compute_uv=False)
        cos_min[judge] = np.where(singular[judge], 0.0, 1 / np.hypot(1, a[..., 0]))
        scale[judge] = np.maximum(1 / np.hypot(1, a[..., -1]),
                                  t[judge] * np.linalg.norm(JQ, 2))
    return cos_min, scale


def flow_kernel(q: QuadraticForm, t) -> GaussianKernel:
    """Kernel of exp(-t q^w), with c the modulus |c| of its prefactor, at a
    time or at each time of an array t (stacked over it), from the flow
    T = exp(-2itJQ) = [[A, B], [C, D]] in n x n blocks (Mehler's formula in
    generating-function form; Hormander, Math. Z. 219, 1995):

        K = i [[-D B^-1, B^-T], [B^-1, -B^-1 A]],
        |c| = (2 pi)^{-n/2} |det B|^{-1/2}.

    T is not formed: it is taken from its midpoint.  One matfun.expm_grid
    call, the exponentials of iJQ along t, gives E^-1 = exp(itJQ) =
    [[a, b], [c, d]], and E = exp(-itJQ) = [[d^T, -b^T], [-c^T, a^T]]
    (matfun.symplectic_inverse) is not formed: M and N below are written,
    transposed, straight from a, b, c and d.  With w = E(y, eta),
    (x, xi) = T(y, eta) is E w, so for M = [E_x; E^-1_x] and
    N = [E_xi; E^-1_xi], the rows of E and E^-1 of x and of xi,
    (x, y) = M w and (xi, eta) = N w: the kernel's
    (xi, eta) = [[D B^-1, -B^-T], [B^-1, -B^-1 A]] (x, y) is L = N M^-1, so
    K = i diag(-I, I) L.  M E = [[A, B], [I, 0]] and det E = 1, so
    |det M| = |det B|.  One slogdet and one 2n x 2n solve, with no
    eigvals(JQ), Pfaffian, tan solve or xi-integral.  M and N hold E's
    growth, as the symbol route's tan(tJQ) does, not that of T, its
    square: T's columns lose a slower mode's part once a faster one
    outgrows it by 1/eps.  c is |c| only: its phase needs the branch of
    det(iB)^{-1/2} continuous from t = 0, which this does not track, so it
    serves the norms, and kernel_from_symbol gives the kernel with its
    phase.

    Decisions, each raising at its first failing t with that t's index:
    t >= 0, E finite (DegenerateTime, where the symbol route's exp(itJQ)
    overflows) and L finite where M is not singular (DegenerateTime: the
    kernel is below float reach), then, where M is not singular,
    _PD_RELATIVE t |JQ|_2 < 1 (DegenerateTime: past it the rule below
    refuses every B, heat's too), then B invertible (NonIntegrableSymbol: no
    kernel).  B is judged by the cosines of the angles between the plane
    T(0 + C^n) = span [B; D] and that of the positions, 1 / hypot(1, sigma(D B^-1)),
    which do not grow with T and at small t, where D is near I, are the
    singular values of B.  B is refused where M is singular, or the least
    cosine is <= _PD_RELATIVE max(the largest, |tJQ|_2) (B = 0 where the
    graph condition fails, as for x^2).  The size of the exponent's
    argument bounds what its rounding leaves in the cosines: without it a
    1 x 1 B would be refused only at exact zero, and the rotation
    i(x^2 + xi^2)/2 at t = pi, where B is sin pi, accepted at the rounding
    of cos(pi/2).  The SVDs of the rule are taken only at the entries that
    its Frobenius bounds do not pass (_cosine_rule).
    """
    op = "flow_kernel"
    t = np.asarray(t, dtype=float)
    Checks()(t < 0, DegenerateTime, "t must be nonnegative", module=_MOD, operation=op)
    n = q.n
    JQ = standard_J(n) @ q.Q
    with np.errstate(over="ignore", invalid="ignore"):
        X = expm_grid(1j * JQ, t)  # E^-1, whose entries are E's
    Checks()(~np.isfinite(X).all(axis=(-2, -1)), DegenerateTime,
             lambda i: f"exp(-itJQ) overflows at t = {t.flat[i]:.6g}",
             module=_MOD, operation=op)
    a, b, c, d = X[..., :n, :n], X[..., :n, n:], X[..., n:, :n], X[..., n:, n:]
    # E = [[d^T, -b^T], [-c^T, a^T]] (symplectic_inverse), so M = [E_x; X_x]
    # and N = [E_xi; X_xi] are written transposed, as the solve takes them
    Mt, Nt = np.empty_like(X), np.empty_like(X)
    Mt[..., :n, :n], Mt[..., :n, n:], Mt[..., n:, n:] = d, a.mT, b.mT
    np.negative(b, out=Mt[..., n:, :n])
    Nt[..., :n, n:], Nt[..., n:, :n], Nt[..., n:, n:] = c.mT, a, d.mT
    np.negative(c, out=Nt[..., :n, :n])
    # scaled by 2^-f to modulus below 1 once the signs are set (a product
    # by 2^-f + 0i does not commute with negation on a signed zero): L is
    # unchanged, and log|det M| gains 2nf log 2
    f = np.frexp(np.abs(X).max(axis=(-2, -1)))[1]
    del X, a, b, c, d
    s = np.ldexp(1.0, -f)[..., None, None]
    Mt *= s
    Nt *= s
    sign, logdet = np.linalg.slogdet(Mt.mT)
    if (sign == 0).any():  # solved as I, and refused below
        Mt = np.where((sign == 0)[..., None, None], np.eye(2 * n), Mt)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            L = np.linalg.solve(Mt, Nt).mT
        except np.linalg.LinAlgError:  # a pivot of M^T's LU underflowed to 0
            lost = (np.linalg.slogdet(Mt)[0] == 0)[..., None, None]  # (t ~ 1e100)
            L = np.where(lost, np.nan, np.linalg.solve(np.where(lost, np.eye(2 * n), Mt), Nt).mT)
    del Mt, Nt
    # M is scaled to modulus below 1, so L leaves the floats only where the
    # kernel, of order 1/t, does (t ~ 1e-310), not where B is singular
    Checks()((sign != 0) & ~np.isfinite(L).all(axis=(-2, -1)), DegenerateTime,
             lambda i: f"the kernel is not finite at t = {t.flat[i]:.6g}",
             module=_MOD, operation=op)
    singular = sign == 0
    tf = t.ravel()
    cos_min, scale = _cosine_rule(L[..., :n, :n].reshape(-1, n, n), tf, JQ,
                                  singular.ravel())
    # where the rule's floor reaches 1, scale is t |JQ|_2, and no cosine passes
    Checks()(~singular.ravel() & (_PD_RELATIVE * scale >= 1), DegenerateTime,
             lambda i: (f"B cannot be judged at t = {tf[i]:.6g}: t |JQ|_2 = "
                        f"{scale[i]:.3e} puts the rounding of exp(-2itJQ) above "
                        "every cosine"), module=_MOD, operation=op)
    Checks()(cos_min <= _PD_RELATIVE * scale, NonIntegrableSymbol,
             lambda i: (f"B, the x-xi block of exp(-2itJQ), is singular at t = "
                        f"{tf[i]:.6g} (least cosine {cos_min[i]:.3e} of "
                        f"[B; D] to the positions, at scale {scale[i]:.3e}): "
                        "no kernel"), module=_MOD, operation=op)
    # K = i diag(-I, I) L, then (K + K^T) / 2, one stack at a time
    K = np.empty(L.shape, dtype=L.dtype)
    np.negative(L[..., :n, :], out=K[..., :n, :])
    K[..., n:, :] = L[..., n:, :]
    del L
    K *= 1j
    K = K + K.mT
    K /= 2
    c = (2 * np.pi) ** (-n / 2) * np.exp(-(logdet + 2 * n * np.log(2) * f) / 2)
    return GaussianKernel(n, c[()], K)


def _real_skew(N, operation: str, module: str = _MOD) -> np.ndarray:
    """N as a real array, or DimensionMismatch (from module.operation) unless
    it is square, finite, real and relative_distance(N, -N^T) <= 1e-12."""
    N = np.asarray(N, dtype=complex)
    if not (N.ndim == 2 and N.shape[0] == N.shape[1] and np.isfinite(N).all()
            and not N.imag.any()
            and relative_distance(N, -N.T) <= 1e-12):
        raise DimensionMismatch("N must be square, finite and real skew-symmetric",
                                module=module, operation=operation)
    return N.real.copy()


def twisted_form_matrix(N) -> np.ndarray:
    """Matrix of |xi - Nx|^2 on R^{2n}: [[N^T N, N], [-N, I]] for N skew."""
    N = np.asarray(N, dtype=float)
    n = N.shape[0]
    T = np.empty((2 * n, 2 * n))
    T[:n, :n], T[:n, n:], T[n:, :n], T[n:, n:] = N.T @ N, N, -N, identity(n)
    return T


def diagnostics_PVMN(sym: MehlerSymbol) -> KernelDiagnostics:
    """P, V and the left/right warp matrices of the kernel's real part.

    NonIntegrableSymbol where Re B is not positive-definite, DegenerateTime
    where the matrices are not finite (Re B ~ t, so near t = 1e-310)."""
    op = "diagnostics_PVMN"
    bf = block_decompose(sym.M)
    R, L, B = bf.R, bf.L, bf.B
    check_integrable(B, NonIntegrableSymbol, module=_MOD, operation=op,
                     what="xi-xi block of the symbol")
    ReB, ImB = B.real, B.imag
    ReL, ImL = L.real, L.imag
    with np.errstate(over="ignore", invalid="ignore"):
        ReB_inv = np.linalg.inv(ReB)
        P = np.linalg.inv(ReB + ImB @ ReB_inv @ ImB)
        V = R.real - ReL.T @ ReB_inv @ ReL
        Mleft = np.eye(sym.n) - ImL / 2 + ImB @ ReB_inv @ ReL / 2
        Nright = np.eye(sym.n) + ImL / 2 - ImB @ ReB_inv @ ReL / 2
    if not all(np.isfinite(X).all() for X in (P, V, Mleft, Nright)):
        raise DegenerateTime(f"the diagnostics are not finite at t = {sym.t:.3g}",
                             module=_MOD, operation=op)
    return KernelDiagnostics(P=P, V=(V + V.T) / 2, Mleft=Mleft, Nright=Nright)


def compose_kernels(k1: GaussianKernel, k2: GaussianKernel) -> GaussianKernel:
    """Exact composition g(x, y) = int g1(x, z) g2(z, y) dz, the
    gaussian_integral over z; the z-z block must have positive-definite real
    part."""
    if k1.n != k2.n:
        raise DimensionMismatch("kernel dimensions differ", module=_MOD,
                                operation="compose_kernels")
    n = k1.n
    K1, K2, Z = k1.K, k2.K, np.zeros((n, n))
    K = np.block([[K1[:n, :n], Z, K1[:n, n:]],
                  [Z, K2[n:, n:], K2[n:, :n]],
                  [K1[n:, :n], K2[:n, n:], K1[n:, n:] + K2[:n, :n]]])
    c, K, _ = gaussian_integral(K, None, n, NonIntegrableComposition, module=_MOD,
                                operation="compose_kernels", what="middle-variable block")
    return GaussianKernel(n, complex(k1.c * k2.c * c), K)


def twisted_sandwich(k: GaussianKernel, N, eps: float) -> GaussianKernel:
    """Kernel of TW o k o TW, TW = (e^{-(eps/2) |xi - Nx|^2})^w, N real skew,
    in covariance form: TW g(x, y) = E_w[exp(i w.Nx) g(x - w, y)] and
    g TW(x, y) = E_w[g(x, y + w) exp(i w.Ny)] for w ~ N(0, eps I), one
    gaussian_integral over (w1, w2) / sqrt(eps) against the standard normal
    density, with block I + eps [[K_xx, -K_xy], [-K_yx, K_yy]]: no 1/eps
    appears, unlike in TW's own kernel, whose entries cancel in composition.
    """
    n, m = k.n, 2 * k.n
    r = np.sqrt(eps)
    sgn = np.repeat([-r, r], n)  # x - w1 and y + w2
    KS = k.K * sgn
    # i r times the Kronecker product I_2 (x) N, its entries I_ab N_ij
    phase = 1j * r * (identity(2)[:, None, :, None] * N[:, None]).reshape(m, m)
    K = np.empty((2 * m, 2 * m), dtype=complex)
    K[:m, :m], K[:m, m:], K[m:, :m] = k.K, KS + phase, KS.T - phase
    K[m:, m:] = sgn[:, None] * KS + identity(m)
    c, K, _ = gaussian_integral(K, None, 2 * n, NonIntegrableComposition, module=_MOD,
                                operation="twisted_sandwich", what="block I + eps A")
    return GaussianKernel(n, complex(k.c * c * (2 * np.pi) ** -n), K)


def disperse(K, b, D, t: float, n: int, error, *, module: str, operation: str, what: str):
    """exp(i t D grad.grad), D real n x n acting as sym D, on the last n
    coordinates y of exp(-z.Kz/2 + b.z), z = (x, y), as (c, K', b') for
    c exp(-z.K'z/2 + b'.z).  The covariance K_yy^-1 gains X = 2it sym D: for
    G = (I + K_yy X)^-1, one solve, K'_y. = G K_y., b'_y = G b_y, K'_x. =
    K_x. - K_xy X G K_y. (b'_x alike), and c = sqrt(det K'_yy / det K_yy)
    exp(b_y.X G b_y/2), one exp with the roots' logs (_sqrt_det's branch), so
    X = 0 gives K' = K and c = 1 exactly.  DimensionMismatch unless D is a
    finite n x n matrix, then error where check_integrable fails K_yy (`what`)."""
    D = np.asarray(D, dtype=float)
    if D.shape != (n, n) or not np.isfinite(D).all():
        raise DimensionMismatch(f"D must be a finite {n} x {n} matrix (shape {D.shape})",
                                module=module, operation=operation)
    K, r = K / 2 + K.T / 2, K.shape[-1] - n
    check_integrable(K[r:, r:], error, module=module, operation=operation, what=what)
    X = 1j * t * (D + D.T)
    Y = np.linalg.solve(identity(n) + K[r:, r:] @ X, np.concatenate([K[r:], b[r:, None]], axis=1))
    Z = K[:r, r:] @ X @ Y
    K2 = np.concatenate([K[:r] - Z[:, :-1], Y[:, :-1]])
    log_root = np.log(_sqrt_det(np.stack([K2[r:, r:], K[r:, r:]])))
    c = np.exp(b[r:] @ X @ Y[:, -1] / 2 + log_root[0] - log_root[1])
    return c, (K2 + K2.T) / 2, np.concatenate([b[:r] - Z[:, -1], Y[:, -1]])


def inverse_twisted(N, s, checks: Checks
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R_s, prefactor) of mehler_inverse_twisted at s, a number or an array
    of them (R_s then stacked over s), and exp(2iJ s R_s), for N real skew.

    NN = L^T L for L = [-N, I] and L J L^T = -2N, so by f(AB) = A g(BA) B
    (Higham, Functions of Matrices, SIAM 2008, sec. 1.8) every function of
    F = s J NN = (s J L^T) L is one of L s J L^T = -2sN.  For N = U diag(w) V^T
    and x = 2sw (artanh(x)/x = 1 at x = 0, so R_s = NN at s = 0):

        R_s = (sJ)^{-1} arctan(F) = L^T V diag(artanh(x)/x) V^T L,
        sqrt(det cos(s J R_s)) = det(I + F^2)^{-1/4} = prod (1 - x^2)^{-1/4},
        exp(2iJ s R_s) = (I + iF)(I - iF)^{-1} = I + 2is J L^T (I + 2isN)^{-1} L.

    Checks: 0 <= s and s |NN| < 2^{-1/2} (SeriesRegimeViolated); |NN|_2 =
    1 + max(w)^2, so the regime keeps x <= s (1 + w^2) < 2^{-1/2} and the
    prefactor real.  One s gives exactly its entry of a (flattened) stack.
    """
    op = "mehler_inverse_twisted"
    n = N.shape[0]
    I = identity(n)
    L = np.hstack([-N, I])
    _, w, Vt = np.linalg.svd(N)
    nrm = 1 + w.max(initial=0.0) ** 2
    s = np.asarray(s, dtype=float)
    checks(s < 0, SeriesRegimeViolated, "s must be nonnegative", module=_MOD,
           operation=op)
    checks(s * nrm >= 2 ** -0.5, SeriesRegimeViolated,
           lambda i: f"s |NN| = {s.flat[i] * nrm:.4f} >= 2^(-1/2)",
           module=_MOD, operation=op)
    shape = s.shape
    s = checks.clean(s, 0.0).reshape(-1, 1, 1)
    x = 2 * s[:, 0] * w
    VL = Vt @ L
    ratio = np.divide(np.arctanh(x), x, out=np.ones_like(x), where=x > 0)
    Rs = VL.T @ (ratio[..., None] * VL)
    X = np.linalg.solve(I + 2j * s * N, L)
    cayley = identity(2 * n) + 2j * s * (np.vstack([I, -N]) @ X)
    out = (Rs + Rs.mT) / 2, np.prod((1 - x) * (1 + x), axis=-1) ** -0.25, cayley
    return tuple(a.reshape(shape + a.shape[1:]) for a in out)


def mehler_inverse_twisted(N, s: float) -> tuple[np.ndarray, float]:
    """Write the twisted diffusion as an evolution operator:

        (e^{-s |xi - Nx|^2})^w = sqrt(det cos(s J R_s)) exp(-s r_s^w),

    returning (R_s, prefactor) with R_s = (sJ)^{-1} arctan(s J NN), in closed
    form (see inverse_twisted), at s or at every s of an array.  N must be
    real skew-symmetric (DimensionMismatch otherwise), and s |NN| < 2^{-1/2}
    (SeriesRegimeViolated otherwise).
    """
    N = _real_skew(N, "mehler_inverse_twisted")
    Rs, pf, _ = inverse_twisted(N, s, Checks())
    return Rs, pf[()]


# --- analytic actions of phase / transport / dispersion factors ------------
# These close the Gaussian kernel class under the unitary-side factors of the
# main decomposition without ever forming a distributional kernel.

def kernel_left_phase(k: GaussianKernel, theta) -> GaussianKernel:
    """Left-multiply by the multiplication operator exp(i theta x.x / 2)."""
    theta = np.asarray(theta, dtype=float)
    K = k.K.copy()
    n = k.n
    K[:n, :n] = K[:n, :n] - 1j * (theta + theta.T) / 2
    return GaussianKernel(n, k.c, K)


def kernel_right_phase(k: GaussianKernel, theta) -> GaussianKernel:
    """Right-compose with the multiplication operator exp(i theta y.y / 2)."""
    theta = np.asarray(theta, dtype=float)
    K = k.K.copy()
    n = k.n
    K[n:, n:] = K[n:, n:] - 1j * (theta + theta.T) / 2
    return GaussianKernel(n, k.c, K)


def kernel_right_transport(k: GaussianKernel, M, t: float, T) -> GaussianKernel:
    """Right-compose with the transport flow u -> u(e^{tM} .), given its
    inverse T = e^{-tM}, which the caller forms; the prefactor is
    exp(-t tr M)."""
    M = np.asarray(M, dtype=float)
    n = k.n
    E = np.eye(2 * n)
    E[n:, n:] = T
    K = E.T @ k.K @ E
    c = k.c * np.exp(-t * np.trace(M))
    return GaussianKernel(n, complex(c), K)


def kernel_right_dispersion(k: GaussianKernel, D, t: float) -> GaussianKernel:
    """Right-compose with exp(i t D grad.grad), D real n x n (acting as sym D,
    even zero): disperse on the y-slice of the kernel, whose K_yy must be
    integrable."""
    c, K, _ = disperse(k.K, np.zeros(2 * k.n), D, t, k.n, NonIntegrableSymbol, module=_MOD,
                       operation="kernel_right_dispersion", what="y-y block of the kernel")
    return GaussianKernel(k.n, complex(k.c * c), K)

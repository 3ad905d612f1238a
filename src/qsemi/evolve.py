"""Applying Gaussian kernels to functions and measuring the smoothing.

Closed-form path: Gaussian states c exp(-Ax.x/2 + b.x) are closed under
kernel application, Fourier multipliers exp(i t D grad.grad), moduli and
convolutions, so every norm and derivative below is exact linear algebra.
A state evaluates at one point or at an (n, ...) array of points, and
d^alpha u = H_alpha u with H_alpha from the multivariate Hermite recurrence.

Norms: on the edge of the exponent square (p = 1 or q = inf) the
L^p -> L^q norm is a closed form in the kernel's blocks (op_norm_edge);
inside it (1 < p <= q < inf) op_norm_lower_gaussian gives a lower bound by a
search over Gaussian input widths.

Sweeps: the norms also take kernels stacked over a grid of times, and
norm_sweep evaluates a whole t-grid at once, as one stacked flow -> kernel
-> norm pass: the kernels and |c| come from the flow exp(-2itJQ), taken
at its midpoint (mehler.flow_kernel), with no Mehler symbol; the lower
bound's width search runs in lockstep over the stack, one stacked
evaluation per width.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTime,
    DimensionMismatch,
    ExponentOrder,
    FixtureHasGraph,
    NonIntegrable,
    NonIntegrableSymbol,
    NonPositiveSample,
    QsemiError,
)
from .matfun import DEFAULT_TOL, Checks, lambda_min_exceeds
from .mehler import (
    GaussianKernel,
    _real_skew,
    _sym_re,
    check_integrable,
    disperse,
    flow_kernel,
    gaussian_integral,
    kernel_from_symbol,
    mehler_symbol,
)
from .quadform import QuadraticForm
from .singular import graph_condition, singular_space

_MOD = "evolve"


@dataclass
class GaussianState:
    """u(x) = c exp(-Ax.x/2 + b.x): A complex symmetric, Re A > 0, c, A, b finite."""
    n: int
    c: complex
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        b = np.asarray(self.b, dtype=complex).reshape(-1)
        if A.shape != (self.n, self.n) or b.shape != (self.n,):
            raise DimensionMismatch(f"A {A.shape} / b {b.shape} for n = {self.n}",
                                    module=_MOD, operation="GaussianState")
        if not (np.isfinite(self.c) and np.isfinite(A).all() and np.isfinite(b).all()):
            raise DegenerateTime(f"c, A and b must be finite (c = {self.c})",
                                 module=_MOD, operation="GaussianState")
        A = A / 2 + A.T / 2  # (A + A^T) / 2 would overflow past 9e307
        check_integrable(A, NonIntegrable, module=_MOD, operation="GaussianState",
                         what="A")
        self.A, self.b = A, b

    def __call__(self, x):
        """u at a point x of shape (n,), or at each point of an (n, ...)
        array; for n = 1 a scalar is a point."""
        x = np.asarray(x, dtype=complex)
        X = x.reshape(self.n, -1)
        quad = np.einsum("ik,ij,jk->k", X, self.A, X)
        return (self.c * np.exp(-0.5 * quad + self.b @ X)).reshape(x.shape[1:])[()]

    def modulus(self) -> "GaussianState":
        """|u| as a Gaussian state (real data)."""
        return GaussianState(self.n, abs(self.c), self.A.real.astype(complex),
                             self.b.real.astype(complex))


def _grid_points(axes) -> np.ndarray:
    """The nodes of a tensor grid as one (n, m_1, ..., m_n) array."""
    return np.stack(np.meshgrid(*[np.linspace(lo, hi, int(m)) for lo, hi, m in axes],
                                indexing="ij"))


# --------------------------------------------------------------------------
# closed-form Gaussian evolution

def apply_kernel_gaussian(k: GaussianKernel, u: GaussianState) -> GaussianState:
    """Exact output of int g(x, y) u(y) dy for a Gaussian state u, the
    gaussian_integral over y.  Needs Re(K_yy + A) positive-definite; K_yy
    alone may be degenerate if the input supplies the missing decay.
    """
    if k.n != u.n:
        raise DimensionMismatch("kernel/state dimension mismatch",
                                module=_MOD, operation="apply_kernel_gaussian")
    n = k.n
    K = k.K.copy()
    K[n:, n:] += u.A
    c, A, b = gaussian_integral(K, np.concatenate([np.zeros(n), u.b]), n, NonIntegrable,
                                module=_MOD, operation="apply_kernel_gaussian",
                                what="combined y-quadratic")
    with np.errstate(over="ignore", invalid="ignore"):  # GaussianState refuses inf or nan
        return GaussianState(n, complex(k.c * u.c * c), A, b)


def dispersion_gaussian(u: GaussianState, D, t: float) -> GaussianState:
    """exp(i t D grad.grad) u, D real n x n acting as sym D, in closed form:
    A^-1 gains 2it sym D (mehler.disperse, one n x n solve)."""
    c, A, b = disperse(u.A, u.b, D, t, u.n, NonIntegrableSymbol,
                       module=_MOD, operation="dispersion_gaussian", what="A")
    return GaussianState(u.n, complex(u.c * c), A, b)


def convolve_gaussian(A_conv, u: GaussianState) -> GaussianState:
    """(f * u) for f(y) = exp(-A_conv y.y / 2), via the kernel f(x - y)."""
    A_conv = np.asarray(A_conv, dtype=complex)
    n = u.n
    K = np.block([[A_conv, -A_conv], [-A_conv, A_conv]])
    return apply_kernel_gaussian(GaussianKernel(n, 1.0 + 0j, K), u)


def lp_norm(u: GaussianState, p: float) -> float:
    """L^p norm of a Gaussian state, in closed form."""
    if not (1 <= p):
        raise ExponentOrder(f"p = {p} out of range", module=_MOD, operation="lp_norm")
    ReA = u.A.real
    Reb = u.b.real
    peak = float(np.exp(0.5 * Reb @ np.linalg.solve(ReA, Reb)))
    return _centered_lp_norm(abs(u.c), ReA, p) * peak


# --------------------------------------------------------------------------
# norms, exponents, estimates

def _centered_lp_norm(c_abs, ReA, p: float):
    """L^p norm of c_abs exp(-ReA x.x / 2), for each entry of a stack."""
    if np.isinf(p):
        return c_abs
    n = ReA.shape[-1]
    mass = (2 * np.pi) ** (n / 2) * p ** (-n / 2) / np.sqrt(np.linalg.det(ReA))
    return c_abs * mass ** (1 / p)


def _width_ratios(k: GaussianKernel, ls, p: float, q: float):
    """|k u|_q / |u|_p for the centered Gaussian u of width 10^ls, one width
    per kernel of a stack: apply_kernel_gaussian and lp_norm for
    u = exp(-|x|^2 10^(-2 ls) / 2) on the stack, and 0 where the first would
    raise (gaussian_integral, or check_integrable on the output's A, records
    the entry); a failed entry goes on with identity blocks.
    """
    n = k.n
    I = np.eye(n)
    s = 10.0 ** (-2 * np.asarray(ls))
    K = k.K.copy()
    K[..., n:, n:] += I * s[..., None, None]
    checks = Checks(K.shape[:-2])
    c, A, _ = gaussian_integral(K, None, n, NonIntegrable, module=_MOD,
                                operation="apply_kernel_gaussian",
                                what="combined y-quadratic", checks=checks)
    check_integrable(A, NonIntegrable, module=_MOD, operation="GaussianState",
                     what="A", checks=checks)
    A = np.where(checks.bad[..., None, None], I, A.real)
    ratio = (_centered_lp_norm(np.abs(k.c * c), A, q)
             / _centered_lp_norm(1.0, I * s[..., None, None], p))
    return np.where(checks.bad, 0.0, ratio)


def op_norm_1_inf(k: GaussianKernel, *, tol: float = DEFAULT_TOL) -> float:
    """L^1 -> L^inf norm = sup |g|; the real part of K is PSD, so the
    supremum sits on the null space of Re K and equals |c|.  A stacked
    kernel gives the norm of each.

    Re K is taken as PSD where lambda_min(H) >= -tol |H|_2 for H = sym Re K:
    relative to the kernel's own size, as mehler.check_integrable's rule, so
    that a kernel's rounding decides nothing at small t, where its entries
    grow like a power of 1/t, and Re K = 0 passes.  A stack that one
    Cholesky factorization certifies (matfun.lambda_min_exceeds) takes no
    eigenvalues; any other stack is decided by eigvalsh, whole."""
    H = _sym_re(k.K)
    if not lambda_min_exceeds(H, -tol):
        lam = np.linalg.eigvalsh(H)
        lam_min = lam[..., 0]
        Checks()(lam_min < -tol * np.abs(lam).max(axis=-1), NonIntegrable,
                 lambda i: f"Re K has lambda_min = {lam_min.flat[i]:.3e}; "
                 "sup |g| is infinite", module=_MOD, operation="op_norm_1_inf")
    return np.abs(k.c)[()]


def on_edge(p: float, q: float) -> bool:
    """Whether (p, q) lies on the edge p = 1 or q = inf of the exponent
    square, where norm_sweep's norm is exact."""
    return bool(p == 1 or np.isinf(q))


def op_norm_edge(k: GaussianKernel, p: float, q: float, *,
                 tol: float = DEFAULT_TOL) -> float:
    """L^p -> L^q norm on the edge p = 1 or q = inf, in closed form.  A
    stacked kernel gives the norm of each.

    With r the Young exponent (p' for q = inf, q for p = 1), the norm is
    sup_x |g(x, .)|_r for q = inf (Hölder, attained) and sup_y |g(., y)|_r
    for p = 1 (Minkowski).  For g = c exp(-z.Kz/2), z = (x, y),

        int |g(x, y)|^r dy = |c|^r (2 pi / r)^{n/2} det(Re K_yy)^{-1/2}
                             exp(-(r/2) x.Sx),

    S the Schur complement of Re K_yy in Re K, and likewise with x and y
    exchanged.  Re K is positive semidefinite (op_norm_1_inf decides it), so
    S is too and the supremum sits at x = 0; r = inf gives sup |g| = |c|.
    """
    if not (1 <= p and 1 <= q and on_edge(p, q)):
        raise ExponentOrder(f"(p, q) = ({p}, {q}): need p, q >= 1 and p = 1 or "
                            "q = inf", module=_MOD, operation="op_norm_edge")
    c_abs = op_norm_1_inf(k, tol=tol)
    r = young_exponent(p, q)
    if np.isinf(r):
        return c_abs
    n = k.n
    block, what = ((k.K[..., n:, n:], "K_yy") if np.isinf(q)
                   else (k.K[..., :n, :n], "K_xx"))
    check_integrable(block, NonIntegrable, module=_MOD, operation="op_norm_edge",
                     what=what)
    return _centered_lp_norm(c_abs, block.real, r)


WIDTH_GRID = np.linspace(-2.0, 2.0, 41)  #: log10 of the lower bound's widths
WIDTH_REFINE = 40  #: golden-section steps after the width grid


def op_norm_lower_gaussian(k: GaussianKernel, p: float, q: float) -> float:
    """Lower bound on the L^p -> L^q norm over centered isotropic Gaussians
    of width 10^ls, ls on WIDTH_GRID, golden-section refined WIDTH_REFINE times.
    norm_sweep uses it inside the exponent square only, 1 < p <= q < inf;
    it requires 1 <= p <= q (ExponentOrder).

    A stacked kernel gives the bound of each: the width grid and the
    golden-section steps run in lockstep, one stacked evaluation per step.
    """
    if not (1 <= p <= q):
        raise ExponentOrder(f"need 1 <= p <= q, got ({p}, {q})", module=_MOD,
                            operation="op_norm_lower_gaussian")

    def ratio(ls):  # one width per kernel
        return _width_ratios(k, ls, p, q)

    vals = np.stack([ratio(np.full(np.shape(k.c), ls)) for ls in WIDTH_GRID])
    i = vals.argmax(axis=0)
    a = WIDTH_GRID[np.maximum(i - 1, 0)]
    b = WIDTH_GRID[np.minimum(i + 1, len(WIDTH_GRID) - 1)]
    phi = (math.sqrt(5) - 1) / 2
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1, f2 = ratio(c1), ratio(c2)
    for _ in range(WIDTH_REFINE):
        # where f1 < f2 the bracket keeps [c1, b] and c2 becomes c1;
        # elsewhere it keeps [a, c2] and c1 becomes c2
        up = f1 < f2
        a, b = np.where(up, c1, a), np.where(up, b, c2)
        x = np.where(up, a + phi * (b - a), b - phi * (b - a))
        fx = ratio(x)
        c1, c2 = np.where(up, c2, x), np.where(up, x, c1)
        f1, f2 = np.where(up, f2, fx), np.where(up, fx, f1)
    return np.maximum(np.maximum(vals.max(axis=0), f1), f2)[()]


def norm_sweep(form: QuadraticForm, t, p: float, q: float):
    """L^p -> L^q norm of exp(-t q^w), q^w the operator of `form`, at a
    time t or at each time of an array t: exact on the edge p = 1 or
    q = inf (op_norm_edge, at form.tol), the Gaussian lower bound inside the
    square.

    The kernels come from the flow exp(-2itJQ) (mehler.flow_kernel, whose c
    is the modulus |c|, all a norm reads), and they and the norms are each
    computed on the whole stack at once.  A failure is the one a loop over t
    would meet first: at the first failing t, from the first stage that fails
    there.
    """
    try:
        k = flow_kernel(form, t)
        if on_edge(p, q):
            return op_norm_edge(k, p, q, tol=form.tol)
        return op_norm_lower_gaussian(k, p, q)
    except QsemiError as exc:
        if exc.index:  # an earlier t may fail in a later stage: that comes first
            norm_sweep(form, np.asarray(t)[:exc.index], p, q)
        raise


def young_exponent(p: float, q: float) -> float:
    """r with 1/r = 1 - 1/p + 1/q, the kernel's exponent in Young's inequality
    for L^p -> L^q; inf where 1 - 1/p + 1/q <= 0."""
    rinv = 1 - (0.0 if np.isinf(p) else 1 / p) + (0.0 if np.isinf(q) else 1 / q)
    return np.inf if rinv <= 0 else 1 / rinv


def compute_cpq(p: float, q: float, n: int, k0: int) -> float:
    """Short-time blow-up exponent of the L^p -> L^q norm.

    r = (1 - 1/p + 1/q)^{-1}; the two branches meet continuously at r = 2.
    """
    if not (1 <= p <= q):
        raise ExponentOrder(f"need 1 <= p <= q, got ({p}, {q})",
                            module=_MOD, operation="compute_cpq")
    r = young_exponent(p, q)
    if r <= 2:
        return n * (2 * k0 + r - 1) / (2 * r)
    if np.isinf(r):
        return n * (2 * k0 + 1) / 2
    return n * (2 * k0 + 1) * (r - 1) / (2 * r)


def fit_exponent(t_values, norms) -> tuple[float, float]:
    """Least-squares slope of log(norm) against log(t); returns (slope, R^2)."""
    t_values = np.asarray(t_values, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if t_values.size < 3:
        raise NonPositiveSample("need at least 3 samples", module=_MOD,
                                operation="fit_exponent")
    if not ((t_values > 0).all() and (norms > 0).all()
            and np.isfinite(t_values).all() and np.isfinite(norms).all()):
        raise NonPositiveSample("t values and norms must be positive and finite",
                                module=_MOD, operation="fit_exponent")
    if np.unique(t_values).size < 2:
        raise NonPositiveSample("need at least 2 distinct t values", module=_MOD,
                                operation="fit_exponent")
    x = np.log(t_values)
    y = np.log(norms)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return float(slope), r2


# --------------------------------------------------------------------------
# derivative growth

def _derivative_norm(u: GaussianState, m: int, X: np.ndarray) -> np.ndarray:
    """|d^m u|_F at each point of X (n, P), by the Hermite recurrence.

    d^alpha u = H_alpha u with H_0 = 1 and, for y = b - Ax,
    H_{alpha + e_i} = y_i H_alpha - sum_l alpha_l A_il H_{alpha - e_l};
    |d^m u|_F^2 = sum over |alpha| = m of (m! / alpha!) |H_alpha u|^2.
    A multi-index is the sorted tuple of its coordinates, built from its
    prefix by its last coordinate, so each one is computed once.
    """
    y = u.b[:, None] - u.A @ X
    H = {(): np.ones(X.shape[1], dtype=complex)}
    for order in range(1, m + 1):
        for beta in itertools.combinations_with_replacement(range(u.n), order):
            *alpha, i = beta
            h = y[i] * H[tuple(alpha)]
            for l in set(alpha):
                rest = list(alpha)
                rest.remove(l)
                h -= alpha.count(l) * u.A[i, l] * H[tuple(rest)]
            H[beta] = h
    total = 0.0
    for beta in itertools.combinations_with_replacement(range(u.n), m):
        orderings = math.factorial(m) // math.prod(math.factorial(beta.count(j))
                                                   for j in set(beta))
        total = total + orderings * np.abs(H[beta]) ** 2
    return np.sqrt(total) * np.abs(u(X))


def derivative_growth_check(k: GaussianKernel, G, u: GaussianState,
                            m_max: int = 6, *, eps: float = 1.0) -> np.ndarray:
    """Ratios r_m = w(x*)^{-m} |d^m (k u)(x*)|_F / (eps^{-m/2} sqrt(m!) |u|_inf)
    for m = 0..m_max, with w(x) = (<Gx> + <G^T x>)/2 evaluated at the
    maximizer x* of the unweighted derivative norm.

    Derivatives are exact (the Hermite recurrence); the maximizer is located
    by a three-stage grid search, never finite differences.
    """
    G = np.asarray(G, dtype=float)
    out = apply_kernel_gaussian(k, u)
    n = out.n
    if n > 2:
        raise DimensionMismatch("derivative check implemented for n <= 2",
                                module=_MOD, operation="derivative_growth_check")
    ReA = out.A.real
    center = np.linalg.solve(ReA, out.b.real)
    radius = 6.0 / math.sqrt(np.linalg.eigvalsh(ReA).min()) + np.abs(center).max()
    u_inf = lp_norm(u, np.inf)
    ratios = np.empty(m_max + 1)
    for m in range(m_max + 1):
        x_best = center.copy()
        span = radius
        for _stage in range(3):
            X = _grid_points([(x - span, x + span, 81) for x in x_best]).reshape(n, -1)
            field = _derivative_norm(out, m, X)
            j = np.argmax(field)
            x_best, best = X[:, j], field[j]
            span /= 20.0
        wx = 0.5 * (math.sqrt(1 + float(np.sum((G @ x_best) ** 2)))
                    + math.sqrt(1 + float(np.sum((G.T @ x_best) ** 2))))
        ratios[m] = (wx ** (-m) * best
                     / (eps ** (-m / 2) * math.sqrt(math.factorial(m)) * u_inf))
    return ratios


# --------------------------------------------------------------------------
# twisted-vs-dispersion bound

BOUND_AXIS = (-8.0, 8.0, 65)  #: each axis of miraculous_bound_check's grid


def miraculous_bound_check(N, eps: float, D, u: GaussianState) -> float:
    """Max over the nodes of the grid BOUND_AXIS^n of LHS - RHS for the
    pointwise bound

        |TW e^{(i/2) d(grad)} u(x)|
            <= (2 pi)^{-n/2} det(eps^2 I + D^2)^{-1/4}
               (e^{-eps r / 2} * |u|)(x - DNx),

    TW the twisted diffusion with parameter eps, r of matrix
    (eps^2 I + D^2)^{-1}.  Both sides of the Gaussian state u are closed
    forms (TW by _twisted_gaussian).  N must be real skew-symmetric
    (DimensionMismatch) and eps positive (NonIntegrableSymbol).
    """
    N = _real_skew(N, "miraculous_bound_check", _MOD)
    if eps <= 0:
        raise NonIntegrableSymbol("eps must be positive", module=_MOD,
                                  operation="miraculous_bound_check")
    D = np.asarray(D, dtype=float)
    n = N.shape[0]
    Rmat = np.linalg.inv(eps ** 2 * np.eye(n) + D @ D)
    pref = (2 * np.pi) ** (-n / 2) * float(np.linalg.det(
        eps ** 2 * np.eye(n) + D @ D)) ** (-0.25)
    lhs_state = _twisted_gaussian(dispersion_gaussian(u, D, 0.5), N, eps)
    rhs_state = convolve_gaussian(eps * Rmat, u.modulus())
    X = _grid_points((BOUND_AXIS,) * n).reshape(n, -1)
    lhs = np.abs(lhs_state(X))
    rhs = pref * np.abs(rhs_state(X - (D @ N) @ X))
    return float((lhs - rhs).max())


def _twisted_gaussian(u: GaussianState, N, eps: float) -> GaussianState:
    """TW u, TW = (e^{-(eps/2) |xi - Nx|^2})^w, in covariance form as in
    mehler.twisted_sandwich: E_w[exp(i w.Nx) u(x - w)], w ~ N(0, eps I), one
    gaussian_integral over w / sqrt(eps) with block I + eps A: no 1/eps entry."""
    n, r = u.n, np.sqrt(eps)
    Kxw = -r * u.A + 1j * r * N
    K = np.block([[u.A, Kxw], [Kxw.T, np.eye(n) + eps * u.A]])
    c, A, b = gaussian_integral(K, np.concatenate([u.b, -r * u.b]), n, NonIntegrable,
                                module=_MOD, operation="miraculous_bound_check",
                                what="block I + eps A")
    return GaussianState(n, complex(u.c * c * (2 * np.pi) ** (-n / 2)), A, b)


# --------------------------------------------------------------------------
# reciprocal demo

def counterexample_demo(q: QuadraticForm, t: float) -> dict:
    """Evolve the jump of u = H(x) exp(-x^2) at x = 0 under a form violating
    the graph condition and report that no smoothing occurs.

    Requires a multiplication-type form (symbol supported on the physical
    variables) with n = 1, for which exp(-t q^w) is multiplication by
    exp(-t q(x, 0)): continuous and 1 at x = 0, so the jump stays 1, in
    closed form.  The form is taken as multiplication-type where no entry of
    its xi rows exceeds q.tol max |Q_ij|, a test that commutes with q -> c q.
    kernel_error names the refusal of the kernel synthesis.
    """
    if graph_condition(singular_space(q)) is not None:
        raise FixtureHasGraph("fixture satisfies the graph condition; "
                              "nothing to demonstrate",
                              module=_MOD, operation="counterexample_demo")
    n = q.n
    if np.abs(q.Q[n:, :]).max() > q.tol * np.abs(q.Q).max():  # Q is symmetric
        raise DimensionMismatch(
            "demo implemented for multiplication-type fixtures (Q supported "
            "on the x-block)", module=_MOD, operation="counterexample_demo")
    if n != 1:
        raise DimensionMismatch("demo implemented for n = 1",
                                module=_MOD, operation="counterexample_demo")
    kernel_error = None
    try:
        kernel_from_symbol(mehler_symbol(q, t))
    except NonIntegrableSymbol as exc:
        kernel_error = type(exc).__name__
    return {"t": t, "jump_before": 1.0, "jump_after": 1.0, "jump_preserved": True,
            "kernel_error": kernel_error}

"""Applying Gaussian kernels to functions and measuring the smoothing.

Closed-form path: Gaussian states c exp(-Ax.x/2 + b.x) are closed under
kernel application, Fourier multipliers exp(i t D grad.grad), moduli and
convolutions, so every norm and derivative below is exact linear algebra.
A state evaluates at one point or at an (n, ...) array of points, and
d^alpha u = H_alpha u with H_alpha from the multivariate Hermite recurrence.

Grid path: tensorized trapezoid quadrature on uniform grids (n <= 2) used to
cross-validate the closed forms and to evolve non-Gaussian inputs.

Norms: on the edge of the exponent square (p = 1 or q = inf) the
L^p -> L^q norm is a closed form in the kernel's blocks (op_norm_edge);
inside it (1 < p <= q < inf) op_norm_lower_gaussian gives a lower bound by a
search over Gaussian input widths.

Sweeps: the norms also take kernels stacked over a grid of times, and
norm_sweep evaluates a whole t-grid at once, as one stacked Mehler -> kernel
-> norm pass; the lower bound's width search runs in lockstep over the
stack, one stacked evaluation per width.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    ExponentOrder,
    FixtureHasGraph,
    NonIntegrable,
    NonIntegrableSymbol,
    NonPositiveSample,
    QsemiError,
    ResolutionTooCoarse,
    TruncationTooLarge,
)
from .matfun import DEFAULT_TOL, Checks, first_index, spectral_norm
from .mehler import (
    GaussianKernel,
    check_integrable,
    disperse,
    gaussian_integral,
    kernel_from_symbol,
    mehler_symbol,
    twisted_kernel,
)
from .quadform import QuadraticForm
from .singular import graph_condition, singular_space

_MOD = "evolve"


@dataclass
class GaussianState:
    """u(x) = c exp(-Ax.x/2 + b.x), A complex symmetric with Re A > 0."""
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
        A = (A + A.T) / 2
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


@dataclass
class GridFunction:
    """Samples on a uniform tensor grid; axes are (min, max, points) triples."""
    n: int
    axes: tuple
    samples: np.ndarray

    def __post_init__(self):
        if len(self.axes) != self.n:
            raise DimensionMismatch("axes/dimension mismatch",
                                    module=_MOD, operation="GridFunction")
        shape = tuple(int(a[2]) for a in self.axes)
        if any(p < 2 for p in shape):
            raise ResolutionTooCoarse("need at least 2 points per axis",
                                      module=_MOD, operation="GridFunction")
        self.samples = np.asarray(self.samples, dtype=complex).reshape(shape)

    def nodes(self, axis: int) -> np.ndarray:
        lo, hi, m = self.axes[axis]
        return np.linspace(lo, hi, int(m))

    def weights(self) -> np.ndarray:
        """Tensor-product trapezoid weights of the whole grid."""
        w = 1.0
        for lo, hi, m in self.axes:
            h = (hi - lo) / (int(m) - 1)
            wa = np.full(int(m), h)
            wa[0] = wa[-1] = h / 2
            w = np.multiply.outer(w, wa)
        return w


@dataclass
class NormFitReport:
    p: float
    q: float
    r: float
    cpq: float
    t_values: np.ndarray
    norms: np.ndarray
    fitted_slope: float
    r_squared: float


def sample_state(u: GaussianState, axes) -> GridFunction:
    """Evaluate a Gaussian state on a tensor grid."""
    return GridFunction(u.n, tuple(axes), u(_grid_points(axes)))


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
    return GaussianState(n, complex(k.c * u.c * c), A, b)


def dispersion_gaussian(u: GaussianState, D, t: float) -> GaussianState:
    """exp(i t D grad.grad) u in closed form (Fourier multiplier, disperse)."""
    c, A, b = disperse(u.A, u.b, np.asarray(D, dtype=float), t, NonIntegrableSymbol,
                       module=_MOD, operation="dispersion_gaussian", what="A")
    return GaussianState(u.n, complex(u.c * c), A, b)


def convolve_gaussian(A_conv, u: GaussianState) -> GaussianState:
    """(f * u) for f(y) = exp(-A_conv y.y / 2), via the kernel f(x - y)."""
    A_conv = np.asarray(A_conv, dtype=complex)
    n = u.n
    K = np.block([[A_conv, -A_conv], [-A_conv, A_conv]])
    return apply_kernel_gaussian(GaussianKernel(n, 1.0 + 0j, K), u)


def lp_norm(u, p: float) -> float:
    """L^p norm, closed form for Gaussian states, quadrature sum for grids."""
    if not (1 <= p):
        raise ExponentOrder(f"p = {p} out of range", module=_MOD, operation="lp_norm")
    if isinstance(u, GaussianState):
        ReA = u.A.real
        Reb = u.b.real
        peak = float(np.exp(0.5 * Reb @ np.linalg.solve(ReA, Reb)))
        return _centered_lp_norm(abs(u.c), ReA, p) * peak
    if isinstance(u, GridFunction):
        if np.isinf(p):
            return float(np.abs(u.samples).max())
        return float((np.abs(u.samples) ** p * u.weights()).sum() ** (1 / p))
    raise DimensionMismatch(f"unsupported input {type(u)}", module=_MOD,
                            operation="lp_norm")


# --------------------------------------------------------------------------
# grid evolution

TRUNCATION_TOL = 1e-6  #: largest boundary-ring mass, relative to the output


def apply_kernel_grid(k: GaussianKernel, u: GridFunction) -> GridFunction:
    """Tensorized trapezoid quadrature of int g(x, y) u(y) dy on u's grid.

    n = 1 evaluates the full exponent matrix; n = 2 factorizes the x-y
    coupling axis by axis, with Gaussian balancing of each factor so that no
    intermediate overflows even for sharply peaked kernels.  The boundary-ring
    mass of the integrand serves as the truncation-error estimate; the grid
    step must resolve the kernel scale 1/sqrt(|K|).
    """
    if k.n != u.n:
        raise DimensionMismatch("kernel/grid dimension mismatch",
                                module=_MOD, operation="apply_kernel_grid")
    if u.n > 2:
        raise DimensionMismatch("grid evolution is implemented for n <= 2",
                                module=_MOD, operation="apply_kernel_grid")
    n = u.n
    nodes = [u.nodes(ax) for ax in range(n)]
    steps = [nodes[ax][1] - nodes[ax][0] for ax in range(n)]
    width = float(np.linalg.norm(k.K, 2)) ** 0.5
    if max(steps) * width > 1.5:
        raise ResolutionTooCoarse(
            f"grid step {max(steps):.3g} too coarse for kernel scale "
            f"{1.0 / max(width, 1e-300):.3g}",
            module=_MOD, operation="apply_kernel_grid")
    Kxx, Kxy, Kyy = k.K[:n, :n], k.K[:n, n:], k.K[n:, n:]
    w = u.weights()

    def ring_mask(shape):
        mask = np.zeros(shape, dtype=bool)
        for ax in range(len(shape)):
            sl = [slice(None)] * len(shape)
            sl[ax] = 0
            mask[tuple(sl)] = True
            sl[ax] = -1
            mask[tuple(sl)] = True
        return mask

    if n == 1:
        x = nodes[0]
        E = np.exp(-0.5 * (Kxx[0, 0] * x[:, None] ** 2
                           + 2 * Kxy[0, 0] * np.outer(x, x)
                           + Kyy[0, 0] * x[None, :] ** 2))
        V = u.samples * w
        out = k.c * (E @ V)
        ring = ring_mask(V.shape)
        tail = abs(k.c) * float((np.abs(E[:, ring]) @ np.abs(V[ring])).max())
    else:
        # balance: exp(-K_ab x y) = exp(-K_ab x y - c_ab (x^2+y^2)/2) times
        # compensating Gaussians folded into the one-sided fields
        C = np.abs(Kxy)
        X = _grid_points(u.axes).reshape(n, -1)

        def field(M, comp):
            quad = np.einsum("ik,ij,jk->k", X, M, X)
            return np.exp(-0.5 * quad + 0.5 * comp @ X ** 2).reshape(u.samples.shape)

        Px = field(Kxx, C.sum(axis=1))
        Py = field(Kyy, C.sum(axis=0))
        Fs = [[np.exp(-Kxy[a, b] * np.outer(nodes[a], nodes[b])
                      - 0.5 * C[a, b] * (nodes[a][:, None] ** 2
                                         + nodes[b][None, :] ** 2))
               for b in range(2)] for a in range(2)]
        V = Py * u.samples * w
        T = np.einsum("ak,bk,jk->jab", Fs[0][1], Fs[1][1], V, optimize=True)
        out = k.c * Px * np.einsum("aj,bj,jab->ab", Fs[0][0], Fs[1][0], T,
                                   optimize=True)
        ring = ring_mask(V.shape)
        Vr = np.where(ring, np.abs(V), 0.0)
        Tr = np.einsum("ak,bk,jk->jab", np.abs(Fs[0][1]), np.abs(Fs[1][1]), Vr,
                       optimize=True)
        tail = (np.abs(Px) * np.einsum("aj,bj,jab->ab", np.abs(Fs[0][0]),
                                       np.abs(Fs[1][0]), Tr, optimize=True)).max()
        tail = abs(k.c) * float(tail)
    scale = max(np.abs(out).max(), 1e-300)
    if tail > TRUNCATION_TOL * scale:
        raise TruncationTooLarge(
            f"boundary mass {tail:.3e} vs output scale {scale:.3e}",
            module=_MOD, operation="apply_kernel_grid")
    return GridFunction(n, u.axes, out)


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
    kernel gives the norm of each."""
    Kr = k.K.real
    lam = np.linalg.eigvalsh((Kr + Kr.mT) / 2)[..., 0]
    i = first_index(lam < -tol * np.maximum(1.0, np.abs(k.c)))
    if i is not None:
        raise NonIntegrable(f"Re K has lambda_min = {lam.flat[i]:.3e}; sup |g| is "
                            "infinite", module=_MOD, operation="op_norm_1_inf",
                            index=i)
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
    r = _young_exponent(p, q)
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


def norm_sweep(form: QuadraticForm, t, p: float, q: float, *,
               tol: float = DEFAULT_TOL):
    """L^p -> L^q norm of exp(-t q^w), q^w the operator of `form`, at a
    time t or at each time of an array t: exact on the edge p = 1 or
    q = inf (op_norm_edge), the Gaussian lower bound inside the square.

    The Mehler symbol, the kernel and the norm are each computed on the whole
    stack at once.  A failure is the one a loop over t would meet first: at
    the first failing t, from the first stage that fails there.
    """
    try:
        k = kernel_from_symbol(mehler_symbol(form, t, tol=tol))
        if on_edge(p, q):
            return op_norm_edge(k, p, q, tol=tol)
        return op_norm_lower_gaussian(k, p, q)
    except QsemiError as exc:
        if exc.index:  # an earlier t may fail in a later stage: that comes first
            norm_sweep(form, np.asarray(t)[:exc.index], p, q, tol=tol)
        raise


def _young_exponent(p: float, q: float) -> float:
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
    r = _young_exponent(p, q)
    if r <= 2:
        return n * (2 * k0 + r - 1) / (2 * r)
    if np.isinf(r):
        return n * (2 * k0 + 1) / 2
    return n * (2 * k0 + 1) * (r - 1) / (2 * r)


def norm_fit_report(p: float, q: float, n: int, k0: int,
                    t_values, norms) -> NormFitReport:
    """Package a measured t-sweep with its derived exponent data."""
    slope, r2 = fit_exponent(t_values, norms)
    return NormFitReport(p=p, q=q, r=_young_exponent(p, q),
                         cpq=compute_cpq(p, q, n, k0),
                         t_values=np.asarray(t_values, float),
                         norms=np.asarray(norms, float),
                         fitted_slope=slope, r_squared=r2)


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

def miraculous_bound_check(N, eps: float, D, u, axes=None) -> float:
    """Max over grid nodes of LHS - RHS for the pointwise bound

        |TW e^{(i/2) d(grad)} u(x)|
            <= (2 pi)^{-n/2} det(eps^2 I + D^2)^{-1/4}
               (e^{-eps r / 2} * |u|)(x - DNx),

    TW the twisted diffusion with parameter eps, r of matrix
    (eps^2 I + D^2)^{-1}.  Gaussian states evaluate both sides in closed
    form (TW by _twisted_gaussian); grid inputs, for D = 0 only (no warp),
    by quadrature against twisted_kernel.
    """
    N = np.asarray(N, dtype=float)
    D = np.asarray(D, dtype=float)
    n = N.shape[0]
    ktw = twisted_kernel(N, eps)  # checks N and eps; the grid path applies it
    Rmat = np.linalg.inv(eps ** 2 * np.eye(n) + D @ D)
    pref = (2 * np.pi) ** (-n / 2) * float(np.linalg.det(
        eps ** 2 * np.eye(n) + D @ D)) ** (-0.25)
    if axes is None:
        axes = tuple((-8.0, 8.0, 65) for _ in range(n))

    if isinstance(u, GaussianState):
        lhs_state = _twisted_gaussian(_half_dispersion(u, D), N, eps)
        rhs_state = convolve_gaussian(eps * Rmat, u.modulus())
        X = _grid_points(axes).reshape(n, -1)
        lhs = np.abs(lhs_state(X))
        rhs = pref * np.abs(rhs_state(X - (D @ N) @ X))
        return float((lhs - rhs).max())
    if isinstance(u, GridFunction):
        if spectral_norm(D) > 0:
            raise DimensionMismatch("grid path supports D = 0 only",
                                    module=_MOD, operation="miraculous_bound_check")
        lhs = np.abs(apply_kernel_grid(ktw, u).samples)
        conv_K = np.block([[eps * Rmat, -eps * Rmat], [-eps * Rmat, eps * Rmat]])
        mod = GridFunction(u.n, u.axes, np.abs(u.samples))
        rhs = pref * np.abs(apply_kernel_grid(
            GaussianKernel(n, 1.0 + 0j, conv_K.astype(complex)), mod).samples)
        return float((lhs - rhs).max())
    raise DimensionMismatch(f"unsupported input {type(u)}", module=_MOD,
                            operation="miraculous_bound_check")


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


def _half_dispersion(u: GaussianState, D) -> GaussianState:
    """exp((i/2) d(grad)) u, i.e. the Fourier multiplier exp(-(i/2) d(xi))."""
    return dispersion_gaussian(u, np.asarray(D, float), 0.5)


# --------------------------------------------------------------------------
# reciprocal demo

def counterexample_demo(q: QuadraticForm, t: float = 0.1, *,
                        tol: float = DEFAULT_TOL) -> dict:
    """Evolve the jump of u = H(x) exp(-x^2) at x = 0 under a form violating
    the graph condition and report that no smoothing occurs.

    Requires a multiplication-type form (symbol supported on the physical
    variables) with n = 1, for which exp(-t q^w) is multiplication by
    exp(-t q(x, 0)): continuous and 1 at x = 0, so the jump stays 1, in
    closed form.  kernel_error names the refusal of the kernel synthesis.
    """
    report = singular_space(q, tol=tol)
    if graph_condition(report, tol=tol) is not None:
        raise FixtureHasGraph("fixture satisfies the graph condition; "
                              "nothing to demonstrate",
                              module=_MOD, operation="counterexample_demo")
    n = q.n
    if np.abs(q.Q[n:, :]).max() > tol or np.abs(q.Q[:n, n:]).max() > tol:
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

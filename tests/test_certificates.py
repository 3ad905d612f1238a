"""The certificates in front of the spectral gates of a norm sweep and of
the build's Strang middle term.

Four gates decide on eigenvalues or singular values:

- evolve.op_norm_1_inf: lambda_min(sym Re K) >= -tol |sym Re K|_2;
- mehler.check_integrable (not_integrable): lambda_min(H) > 1e-12 |H|_2;
- mehler.flow_kernel's "B invertible" rule (_cosine_rule): the least
  cosine 1 / hypot(1, sigma_max(L11)) > 1e-12 max(the greatest, |tJQ|_2);
- decompose._strang's radius: |A|_2 and |B|_2 below log(2)/6.

Before each, a certificate passes the entries it can prove pass: for the
first two, the one stacked Cholesky factorization of
matfun.lambda_min_exceeds(H, rel), which proves lambda_min(H) > rel |H|_2
(rel = -tol and 1e-12); for the others, a Cholesky factorization or
Frobenius bounds.  A certificate must never pass an entry the gate's own
rule refuses, so the matrices below put lambda_min (or the least cosine) a
few rounding units either side of each gate's floor, and a few allowances
above it, at scales 1e-30 to 1e30 and sizes up to 20; the blocks
diag(1, 2^-41) and diag(1, 2^-39) sit just below and just above
not_integrable's threshold.  Where a certificate fails, the rule runs as
before, so a stack with one failing entry raises the same error, index and
message as before (the messages below are those of the rule alone).  A
passing sweep takes no eigvalsh and no SVD in mehler or evolve.
"""
import sys
import warnings

import numpy as np
import pytest

from qsemi import QuadraticForm, build_decomposition
from qsemi.decompose import STRANG_RADIUS, _strang
from qsemi.errors import NonIntegrable, NonIntegrableSymbol, RadiusExceeded
from qsemi.evolve import norm_sweep, op_norm_1_inf
from qsemi.fixtures import fokker_planck, heat, kolmogorov
from qsemi.matfun import Checks, expm, lambda_min_exceeds, rounding_allowance
from qsemi.mehler import (
    GaussianKernel,
    _cosine_rule,
    _sym_re,
    check_integrable,
    flow_kernel,
    not_integrable,
)
from qsemi.quadform import standard_J

EPS = np.finfo(float).eps
SIZES = (1, 2, 3, 5, 8, 13, 20)
SCALES = (1e-30, 1e-12, 1.0, 1e12, 1e30)


def orthogonal(rng, m):
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    return Q * np.sign(np.diag(R))


def with_lambda_min(rng, m, scale, lam_min, norm=None):
    """A real symmetric m x m matrix of norm ~ scale whose least eigenvalue
    is lam_min (up to the rounding of forming it), and whose greatest is
    norm when that is given (m >= 2)."""
    lam = scale * rng.uniform(0.1, 1.0, m)
    if norm is not None:
        lam[-1] = norm
    lam[0] = lam_min
    Q = orthogonal(rng, m)
    H = (Q * lam) @ Q.T
    return (H + H.T) / 2


def offsets(m, floor_scale):
    """lambda_min - floor, relative to the scale: a few rounding units either
    side of the floor, and a few allowances above it."""
    a = rounding_allowance(m) * (1 + floor_scale)
    return [k * EPS for k in range(-6, 7)] + [0.5 * a, 2 * a, 10 * a, 1e3 * a]


def test_integrability_certificate_passes_only_what_not_integrable_passes():
    rng = np.random.default_rng(41)
    certified = 0
    for m in SIZES:
        for scale in SCALES:
            for d in offsets(m, 1e-12):
                H = with_lambda_min(rng, m, scale, (1e-12 + d) * scale)
                if lambda_min_exceeds(H, 1e-12):
                    certified += 1
                    assert not not_integrable(H)[0], (m, scale, d)
    assert certified > 0


@pytest.mark.parametrize("x, passes", [(2.0 ** -41, False), (2.0 ** -39, True)])
def test_integrability_certificate_at_the_threshold_blocks(x, passes):
    for scale in SCALES:
        H = np.diag([1.0, x]) * scale
        assert bool(not_integrable(H)[0]) != passes
        assert lambda_min_exceeds(H, 1e-12) == passes
        # and through the gate itself
        if passes:
            check_integrable(H, NonIntegrable, module="test", operation="site", what="W")
        else:
            with pytest.raises(NonIntegrable):
                check_integrable(H, NonIntegrable, module="test", operation="site",
                                 what="W")


def test_sup_norm_certificate_passes_only_what_eigvalsh_passes():
    # lambda_min at rel |H|_2 plus the offsets, for the relative floors of
    # op_norm_1_inf's rule (rel = -tol): a certified entry is one whose
    # eigvalsh lambda_min is above rel |H|_2 (the rule passes it)
    rng = np.random.default_rng(43)
    certified = 0
    for m in SIZES:
        for scale in SCALES:
            for rel in (-1e-9, -1e-12, -1e-14, -2e-15):
                for d in offsets(m, -rel) + [-rel / 2, -rel, -2 * rel]:
                    H = with_lambda_min(rng, m, scale, (rel + d) * scale, norm=scale)
                    if lambda_min_exceeds(H, rel):
                        certified += 1
                        lam = np.linalg.eigvalsh(H)
                        assert lam[0] > rel * np.abs(lam).max(), (m, scale, rel, d)
    assert certified > 0


@pytest.mark.parametrize("rel", [-1e-9, 1e-12])
def test_certificate_decides_alike_at_every_power_of_two(rel):
    # the floor and the allowance scale with |H|_F, and a power of two
    # scales every step of the factorization exactly
    rng = np.random.default_rng(44)
    for m in SIZES:
        for scale in SCALES:
            for d in offsets(m, abs(rel)) + [abs(rel) / 2, abs(rel), 2 * abs(rel)]:
                H = with_lambda_min(rng, m, scale, (rel + d) * scale, norm=scale)
                passes = lambda_min_exceeds(H, rel)
                for k in (-200, -40, 40, 200):
                    assert lambda_min_exceeds(H * 2.0 ** k, rel) == passes, (m, scale, d, k)


def test_gates_decide_alike_at_every_power_of_two():
    # op_norm_1_inf and check_integrable on a stack and on 2^k times it:
    # the same entry raises, or none does; the offsets run downwards, so
    # the first failing entry is past the passing ones
    rng = np.random.default_rng(45)
    for m in (2, 4, 10, 20):
        for rel in (-1e-9, 1e-12):
            for d in (offsets(m, abs(rel))[::-1], [1e-3, 0.1]):
                H = np.stack([with_lambda_min(rng, m, 1.0, rel + x, norm=1.0) for x in d])
                decided = []
                for k in (0, -200, -40, 40, 200):
                    K = (H * 2.0 ** k).astype(complex)
                    try:
                        if rel < 0:
                            op_norm_1_inf(GaussianKernel(m // 2, np.ones(len(K)) + 0j, K))
                        else:
                            check_integrable(K, NonIntegrable, module="test", operation="site",
                                             what="W")
                        decided.append(None)
                    except NonIntegrable as exc:
                        decided.append(exc.index)
                assert decided == decided[:1] * 5, (m, rel, decided)


def test_sup_norm_gate_decides_as_eigvalsh():
    # op_norm_1_inf on kernels whose Re K is such an H, stacked over the
    # offsets: it raises exactly where eigvalsh's lambda_min < -tol |Re K|_2,
    # at the first such entry, whatever |c|; the last four offsets (a few
    # allowances above the floor) also make a stack of their own
    rng = np.random.default_rng(47)
    for m in (2, 4, 10, 20):
        for scale in (1e-6, 1.0, 1e6):
            for c in (1.0, 1e4, 1e12):
                for d in (offsets(m, 1e-9), offsets(m, 1e-9)[-4:]):
                    lams = [(-1e-9 + x) * scale for x in d]
                    K = np.stack([with_lambda_min(rng, m, scale, lam, norm=scale)
                                  for lam in lams])
                    k = GaussianKernel(m // 2, np.full(len(K), c + 0j), K.astype(complex))
                    lam = np.linalg.eigvalsh(K)
                    fails = np.flatnonzero(lam[:, 0] < -1e-9 * np.abs(lam).max(axis=-1))
                    if fails.size == 0:
                        assert np.array_equal(op_norm_1_inf(k), np.full(len(K), c))
                        continue
                    with pytest.raises(NonIntegrable) as info:
                        op_norm_1_inf(k)
                    assert info.value.index == fails[0]
                    assert f"lambda_min = {lam[fails[0], 0]:.3e}" in str(info.value)


def test_sup_norm_gate_passes_a_zero_real_part():
    # Re K = 0 (a purely oscillatory kernel, Schrodinger's): lambda_min = 0
    # = -tol |Re K|_2 is on the passing side of the rule
    rng = np.random.default_rng(48)
    S = rng.standard_normal((3, 4, 4))
    k = GaussianKernel(2, np.array([1.0, 2.0, 3.0]) + 0j, 1j * (S + S.mT))
    assert not lambda_min_exceeds(np.zeros((3, 4, 4)), -1e-9)
    assert op_norm_1_inf(k).tolist() == [1.0, 2.0, 3.0]


def test_sup_norm_gate_certifies_kolmogorov_with_room(monkeypatch):
    # kolmogorov's flow kernels on the sweep's grid: lambda_min(sym Re K) is
    # rounding, within a few units of 0 relative to |Re K|_2 ~ t^-3, so the
    # rule passes each entry by about tol |Re K|_2, and the certificate
    # proves it with no eigvalsh
    k = flow_kernel(kolmogorov(), np.logspace(-4, -1, 40))
    lam = np.linalg.eigvalsh(_sym_re(k.K))
    norm = np.abs(lam).max(axis=-1)
    assert (lam[:, 0] + 1e-9 * norm >= 1e-10 * norm).all()

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    assert np.array_equal(op_norm_1_inf(k), np.abs(k.c))


def test_a_shift_out_of_float_range_proves_nothing_quietly():
    # |H|_F overflows near 1e300: the shift is not finite, and no
    # RuntimeWarning is printed on the way
    H = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0]) * 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rel in (-1e-9, 1e-12):
            assert not lambda_min_exceeds(H, rel)
            assert lambda_min_exceeds(H[:1], rel)
            assert not lambda_min_exceeds(np.full((2, 2), np.nan), rel)


def cosine_rule_by_svd(L11, t, JQ):
    """The rule's (least cosine, scale) from the singular values alone."""
    a = np.linalg.svd(L11, compute_uv=False)
    return (1 / np.hypot(1, a[:, 0]),
            np.maximum(1 / np.hypot(1, a[:, -1]), t * np.linalg.norm(JQ, 2)))


def test_cosine_certificate_passes_only_what_the_svd_rule_passes():
    rng = np.random.default_rng(53)
    certified = 0
    for n in (1, 2, 3, 5, 10):
        J = standard_J(n)
        for g in (0.5, 1.0, 3.0):  # t |JQ|_F, below and above the greatest cosine's 1
            JQ = J * (g / np.linalg.norm(J))
            L11, ts = [], []
            for s_min in (0.0, 1.0, 1e6):
                for d in [k * EPS for k in range(-6, 7)] + [1e-10, 1e-6, 1e-3]:
                    # 1 / hypot(1, s_max) = 1e-12 max(1, g) (1 + d)
                    s_max = np.sqrt((1e12 / max(1.0, g) / (1 + d)) ** 2 - 1)
                    sv = np.sort(np.r_[s_max, np.full(n - 1, min(s_min, s_max))])[::-1]
                    U, V = orthogonal(rng, n), orthogonal(rng, n)
                    L11.append((U * sv) @ V.T * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                    ts.append(1.0)
            L11, ts = np.array(L11), np.array(ts)
            cos_min, scale = _cosine_rule(L11, ts, JQ, np.zeros(len(ts), dtype=bool))
            ref_cos, ref_scale = cosine_rule_by_svd(L11, ts, JQ)
            passed = (cos_min == 1) & (scale == 0)
            certified += passed.sum()
            assert (ref_cos[passed] > 1e-12 * ref_scale[passed]).all(), (n, g)
            assert np.array_equal(cos_min[~passed], ref_cos[~passed])
            assert np.array_equal(scale[~passed], ref_scale[~passed])
    assert certified > 0


def test_cosine_rule_takes_singular_entries_as_refused():
    L11 = np.stack([np.eye(2), np.full((2, 2), np.nan), np.eye(2)]).astype(complex)
    cos_min, scale = _cosine_rule(L11, np.ones(3), standard_J(2),
                                  np.array([False, True, False]))
    assert cos_min.tolist() == [1.0, 0.0, 1.0] and scale[1] > 0


def with_spectral_norm(rng, m, norm, rank):
    """A real symmetric m x m matrix of the given rank whose spectral norm is
    norm (up to the rounding of forming it); rank 1 has |.|_F = |.|_2, the
    certificate's tightest case."""
    lam = np.zeros(m)
    lam[:rank] = norm * rng.uniform(0.1, 1.0, rank) * rng.choice([-1.0, 1.0], rank)
    lam[0] = norm * rng.choice([-1.0, 1.0])
    Q = orthogonal(rng, m)
    H = (Q * lam) @ Q.T
    return (H + H.T) / 2


def test_strang_radius_certificate_passes_only_what_the_svd_passes():
    # pairs (A, B), one of them a few rounding units either side of the
    # radius or a few allowances below it, the other at several scales below
    # it: the entries the radius refuses are those whose SVD norm reaches it,
    # with the SVD's message, and the Frobenius certificate passes none of them
    rng = np.random.default_rng(61)
    certified = 0
    for n in (1, 2, 3, 5, 10):
        m = 2 * n
        a = rounding_allowance(m)
        pairs = []
        for rank in (1, m):
            for d in [k * EPS for k in range(-6, 7)] + [-0.5 * a, -2 * a, -10 * a, -1e3 * a]:
                for other in (0.0, 1e-30, 1e-12, 1e-3, 0.5):
                    near = with_spectral_norm(rng, m, STRANG_RADIUS * (1 + d), rank)
                    far = with_spectral_norm(rng, m, STRANG_RADIUS * other, rank)
                    pairs += [(near, far), (far, near)]
        A, B = (np.array(x) for x in zip(*pairs))
        J = standard_J(n)
        EA, EB = expm(-2j * J @ A), expm(2j * J @ B)
        checks = Checks(len(A))
        _strang(A, B, EA, EB, 1e-9, checks)
        na, nb = (np.linalg.norm(X, 2, axis=(-2, -1)) for X in (A, B))
        refused = np.flatnonzero((na >= STRANG_RADIUS) | (nb >= STRANG_RADIUS))
        assert refused.size and refused.size < len(A)
        got = {i: e for i, e in checks.errors.items() if isinstance(e, RadiusExceeded)}
        assert sorted(got) == refused.tolist()
        for i in refused:
            assert str(got[i]) == (
                f"[decompose.strang_middle] |A| = {na[i]:.4f}, |B| = {nb[i]:.4f} must "
                f"be below log(2)/6 = {STRANG_RADIUS:.4f}")
        fro = np.maximum(np.linalg.norm(A, axis=(-2, -1)), np.linalg.norm(B, axis=(-2, -1)))
        passed = fro * (1 + a) < STRANG_RADIUS
        certified += passed.sum()
        assert not np.isin(np.flatnonzero(passed), refused).any(), n
    assert certified > 0


def test_a_build_takes_no_svd_where_the_radius_certificate_passes(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        frame = sys._getframe(1)
        while frame and not frame.f_globals.get("__name__", "").startswith("qsemi."):
            frame = frame.f_back
        if frame and frame.f_code.co_name == "_strang":
            calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)
    # np.linalg.norm(X, 2) reaches svd through numpy.linalg._linalg
    for module in (np.linalg, sys.modules["numpy.linalg._linalg"]):
        monkeypatch.setattr(module, "svd", counted)
    build_decomposition(kolmogorov(), 0.01, t_grid=np.logspace(-3, -2, 10))
    assert calls == []
    # a grid out to t = 2 passes the radius (at t0 ~ 0.539), where the SVD decides
    build_decomposition(fokker_planck(), 0.01, t_grid=np.logspace(-3, np.log10(2), 30))
    assert calls


# --- a failing entry still meets the rule's own error -------------------------

def test_flow_kernel_failure_keeps_its_error():
    # the rotation i(x^2 + xi^2)/2: B = sin t vanishes at t = pi
    rot = QuadraticForm(1, 0.5j * np.eye(2))
    for site in (flow_kernel, lambda q, t: norm_sweep(q, t, 1, np.inf)):
        with pytest.raises(NonIntegrableSymbol) as info:
            site(rot, np.array([1.0, 2.0, np.pi, 4.0]))
        assert info.value.index == 2
        assert str(info.value) == (
            "[mehler.flow_kernel] B, the x-xi block of exp(-2itJQ), is singular at "
            "t = 3.14159 (least cosine 2.220e-16 of [B; D] to the positions, at "
            "scale 1.571e+00): no kernel")


def test_sup_norm_failure_keeps_its_error():
    t = np.array([0.1, 0.2, 0.3, 0.4])
    K = np.stack([np.array([[1, -1], [-1, 1]]) / (2 * s) for s in t]).astype(complex)
    K[2] = np.array([[1.0, -1.0], [-1.0, 0.75]]) / 0.6
    with pytest.raises(NonIntegrable) as info:
        op_norm_1_inf(GaussianKernel(1, (4 * np.pi * t) ** -0.5 + 0j, K))
    assert info.value.index == 2
    assert str(info.value) == ("[evolve.op_norm_1_inf] Re K has lambda_min = "
                               "-2.213e-01; sup |g| is infinite")


def test_integrability_failure_keeps_its_error():
    W = np.stack([np.diag([1.0, x]) for x in (1.0, 2.0 ** -39, 2.0 ** -41, -1.0)])
    with pytest.raises(NonIntegrable) as info:
        check_integrable(W.astype(complex), NonIntegrable, module="test",
                         operation="site", what="W")
    assert info.value.index == 2
    assert str(info.value) == ("[test.site] W must have positive-definite real part "
                               "(lambda_min = 4.547e-13)")


# --- a passing sweep takes no eigenvalues or singular values --------------------

def sweep_forms():
    rng = np.random.default_rng(59)
    G = rng.standard_normal((10, 10))
    S = rng.standard_normal((10, 10))
    Q = G @ G.T + 1j * (S + S.T)
    return [(heat(), 1), (heat(), 2), (QuadraticForm(5, Q / np.linalg.norm(Q, 2)), 1)]


def test_passing_sweeps_take_no_eigvalsh_or_svd(monkeypatch):
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            frame = sys._getframe(1)
            while frame and not frame.f_globals.get("__name__", "").startswith("qsemi."):
                frame = frame.f_back
            if frame and frame.f_globals["__name__"] in ("qsemi.mehler", "qsemi.evolve"):
                calls.append((name, frame.f_code.co_name))
            return real(*args, **kwargs)
        return call

    # np.linalg.norm(X, 2) reaches svd through numpy.linalg._linalg
    for name in ("eigvalsh", "svd"):
        wrapped = counted(name, getattr(np.linalg, name))
        for module in (np.linalg, sys.modules["numpy.linalg._linalg"]):
            monkeypatch.setattr(module, name, wrapped)
    t = np.logspace(-4, -1, 40)
    for form, p in sweep_forms():
        assert np.isfinite(norm_sweep(form, t, p, np.inf)).all()
    assert calls == []

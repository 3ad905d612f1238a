"""Matrix-function kernel tests.

Expected values for the J-plane closed forms are derived from J^2 = -I:
for any complex z, exp(zJ) = cos(z) I + sin(z) J, hence cos(theta J) =
cos(i theta)... evaluated through the even/odd series: cos(theta J) =
cosh(theta) I and arctan(theta J) = artanh(theta) J.  The oracle helper
below recomputes these from truncated scalar series, independent of the
matrix routines under test.
"""
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from qsemi import (
    BranchTrackedScalar,
    mat_arctan,
    mat_cos,
    mat_log_principal,
    null_space,
    psd_check,
    sqrt_det_cos_tracked,
    standard_J,
)
from qsemi.errors import (
    BranchCut,
    ConjugatePointOnPath,
    NonSquare,
    QsemiError,
    SpectralRadiusTooLarge,
)
from qsemi.fixtures import heat, kolmogorov
from qsemi.matfun import (
    _EXPM_PADE,
    _LOG_THETA,
    Checks,
    cos_sin_sqrt_det,
    expm,
    expm_hamiltonian,
    log_principal,
    pfaffian,
)
from qsemi.mehler import twisted_form_matrix

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def series_on_J2(coeff_fn, theta, terms=60):
    """Evaluate sum_k c_k (theta J2)^k using J2^2 = -I, term by term."""
    out = np.zeros((2, 2), dtype=complex)
    P = np.eye(2, dtype=complex)
    for k in range(terms):
        out = out + coeff_fn(k) * P
        P = P @ (theta * J2)
    return out


def test_log_identity():
    assert np.allclose(mat_log_principal(np.eye(3)), np.zeros((3, 3)), atol=1e-13)


def test_log_nilpotent():
    t = 0.5
    A = np.array([[1.0, t], [0.0, 1.0]])
    expected = np.array([[0.0, t], [0.0, 0.0]])
    assert np.allclose(mat_log_principal(A), expected, atol=1e-12)


def test_log_roundtrip_twisted_generator():
    rng = np.random.default_rng(3)
    a = rng.standard_normal()
    N = np.array([[0.0, a], [-a, 0.0]])
    NN = twisted_form_matrix(N)
    G = 0.1 * standard_J(2) @ NN
    assert np.allclose(mat_log_principal(sla.expm(G)), G, atol=1e-11)


def test_log_branch_cut_detection():
    with pytest.raises(BranchCut):
        mat_log_principal(np.diag([-1.0, 2.0]))


def test_log_rejects_nonsquare_and_nonfinite():
    with pytest.raises(NonSquare):
        mat_log_principal(np.zeros((2, 3)))
    A = np.stack([np.eye(2), np.full((2, 2), np.inf)])
    with pytest.raises(NonSquare) as exc:
        mat_log_principal(A)
    assert exc.value.index == 1


def mp_logm(A, dps=30):
    """Log of A by mpmath at dps digits, as a complex array.  mpmath's branch
    is the principal one only away from the negative real axis, so the test
    inputs keep their eigenvalues there."""
    with mpmath.workdps(dps):
        L = mpmath.logm(mpmath.matrix(A.tolist()))
        return np.array(L.tolist(), dtype=complex)


def test_log_stack_matches_mpmath():
    """Entries near I next to entries that need several square roots, and a
    defective one, against mpmath at 30 digits."""
    rng = np.random.default_rng(43)
    m = 4
    entries = []
    for scale in (1e-9, 1e-4, 0.2, 1.0, 3.0):
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        entries.append(sla.expm(X * scale / np.linalg.norm(X, 2)))
    H = rng.standard_normal((m, m))
    entries.append(sla.expm(8 * (H + H.T) / np.linalg.norm(H + H.T, 2)))
    N = np.triu(rng.standard_normal((m, m)), 1)  # nilpotent
    entries.append(np.eye(m) + 3 * N)
    entries.append(np.diag([1e3, 1e-3, -0.5 + 1j, 2j]))
    A = np.stack(entries)
    L = mat_log_principal(A)
    assert L.shape == A.shape
    for k in range(len(A)):
        ref = mp_logm(A[k])
        # relative to |log A| itself: entries near I keep their relative accuracy
        bound = (5e-15 + 1e-17 * np.linalg.cond(A[k])) * np.linalg.norm(ref)
        assert np.linalg.norm(L[k] - ref) <= bound, k
        assert np.linalg.norm(L[k] - mat_log_principal(A[k])) == 0.0


def test_log_just_below_each_theta_matches_mpmath():
    # each degree m at 0.99 theta_m, the largest |X|_1 at which it is the
    # degree chosen; log(I + X) from X itself, so that even |X|_1 ~ 4e-8
    # keeps its relative accuracy
    rng = np.random.default_rng(29)
    G = rng.standard_normal((2, 4, 4))
    K = G[0] + 1j * G[1]
    X = np.stack([0.99 * theta * K / np.abs(K).sum(axis=0).max() for theta in _LOG_THETA])
    L = log_principal(np.eye(4) + X, X, 1e-9, Checks())
    for Lk, Xk in zip(L, X):
        with mpmath.workdps(30):
            want = mpmath.logm(mpmath.eye(4) + mpmath.matrix(Xk.tolist()))
            want = np.array(want.tolist(), dtype=complex)
        assert np.linalg.norm(Lk - want) <= 1e-15 * np.linalg.norm(want)


def test_log_stack_branch_cut_names_the_entry():
    A = np.stack([np.eye(2), 2 * np.eye(2), np.diag([-3.0, 1.0]), np.diag([0.0, 1.0])])
    with pytest.raises(BranchCut, match="on the negative real axis") as exc:
        mat_log_principal(A)
    assert exc.value.index == 2
    checks = Checks(A.shape[:-2])
    L = log_principal(A, A - np.eye(2), 1e-9, checks)
    assert checks.bad.tolist() == [False, False, True, True]
    assert np.isfinite(L).all()
    assert np.abs(L[1] - np.log(2) * np.eye(2)).max() < 1e-15


def test_recording_checks_keep_each_entrys_first_error():
    # two checks that overlap on entry 0, whose first error is the first check's
    stages = ((np.array([[True, False, True], [False, False, False]]), BranchCut, "m", "a"),
              (np.array([[True, True, False], [False, False, True]]), NonSquare, "n", "b"))

    def run(checks, only=None):
        for mask, error, module, operation in stages:
            if only is not None:
                mask = mask & (np.arange(mask.size).reshape(mask.shape) == only)
            checks(mask, error, lambda i: f"{operation} fails at {i}",
                   module=module, operation=operation)

    recorded = Checks((2, 3))
    run(recorded)
    assert recorded.bad.tolist() == [[True, True, True], [False, False, True]]
    assert sorted(recorded.errors) == [0, 1, 2, 5]
    assert str(recorded.errors[0]) == "[m.a] a fails at 0"
    assert str(recorded.errors[5]) == "[n.b] b fails at 5"
    for i, exc in recorded.errors.items():
        # what a raising Checks gives when entry i alone fails
        with pytest.raises(QsemiError) as alone:
            run(Checks(), only=i)
        assert type(exc) is type(alone.value) and str(exc) == str(alone.value)
        assert (exc.module, exc.operation) == (alone.value.module, alone.value.operation)
        assert exc.index == alone.value.index == i


def test_recording_checks_name_each_failure_of_a_loop():
    # messages that close over a loop variable are built when their entry fails
    checks = Checks((3,))
    for what, margin in (("lower", np.array([-1.0, 2.0, 3.0])),
                         ("upper", np.array([4.0, -5.0, -6.0]))):
        checks(margin < 0, NonSquare, lambda i: f"{what} margin {margin[i]}",
               module="m", operation="a")
    assert {i: str(e) for i, e in checks.errors.items()} == {
        0: "[m.a] lower margin -1.0", 1: "[m.a] upper margin -5.0",
        2: "[m.a] upper margin -6.0"}


def test_log_exp_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A *= 0.35 / np.linalg.norm(A, 2)
        assert np.linalg.norm(mat_log_principal(sla.expm(A)) - A) < 1e-9


def test_cos_zero():
    assert np.allclose(mat_cos(np.zeros((3, 3))), np.eye(3), atol=1e-14)


def test_cos_on_J_closed_form():
    t = 1.0
    oracle = series_on_J2(
        lambda k: ((-1) ** (k // 2) / math.factorial(k) if k % 2 == 0 else 0.0),
        t / 2)
    assert np.allclose(oracle, np.cosh(t / 2) * np.eye(2), atol=1e-12)
    assert np.allclose(mat_cos(t * J2 / 2), oracle, atol=1e-12)


def tan(A):
    """tan(A) = cos(A)^{-1} sin(A) of a Hamiltonian A = JQ, as the Mehler
    symbol computes it."""
    C, S, _ = cos_sin_sqrt_det(standard_J(len(A) // 2).T @ A, 1.0)
    return np.linalg.solve(C, S)


def test_tan_nilpotent_heat():
    Q = np.diag([0.0, 1.0]).astype(complex)
    t = 0.4
    A = t * standard_J(1) @ Q
    assert np.allclose(tan(A), A, atol=1e-13)


def test_tan_commutes_with_argument():
    rng = np.random.default_rng(5)
    A = standard_J(2) @ random_complex_symmetric(rng, 2)
    A *= 0.8 / np.linalg.norm(A, 2)
    T = tan(A)
    assert np.linalg.norm(T @ A - A @ T) < 1e-10


def test_cos_sin_pythagoras():
    rng = np.random.default_rng(13)
    for _ in range(10):
        Q = 5.0 * random_complex_symmetric(rng, 2)
        C, S, _ = cos_sin_sqrt_det(Q, 1.0)
        assert np.linalg.norm(C @ C + S @ S - np.eye(4)) < 1e-10 * np.linalg.norm(C @ C)


def random_complex_symmetric(rng, n):
    """A complex symmetric 2n x 2n matrix of spectral norm 1."""
    X = rng.standard_normal((2, 2 * n, 2 * n))
    Q = X[0] + X[0].T + 1j * (X[1] + X[1].T)
    return Q / np.linalg.norm(Q, 2)


def expm_mpmath(X, dps: int = 30) -> np.ndarray:
    """exp(X) to dps digits by mpmath, rounded to complex doubles."""
    with mpmath.workdps(dps):
        return np.array(mpmath.expm(mpmath.matrix(X.tolist())).tolist(), dtype=complex)


def expm_errors(E, X) -> tuple[float, float]:
    """The relative errors of E and of scipy.linalg.expm(X) against mpmath's
    exp(X); asserts that E's is at most twice scipy's, or at most twice the
    rounding level k u max(1, |X|_1) of an order-k matrix.

    The condition number of exp at X is at least |X|, so a backward-stable
    evaluation may err by that level; below it, which of two such evaluations
    lands closer is rounding luck.  On 462 seeded random matrices, n = 1..10
    and |X|_1 up to 50, 12% of matfun.expm's errors exceed twice scipy's
    (scipy picks degree and squarings from |X^k|^(1/k), Al-Mohy and Higham
    2009, not from |X|_1), none exceeds this bound, and the median ratio is
    1.02 to 1.09 per seed.
    """
    want = expm_mpmath(X)
    err, err_scipy = (float(np.linalg.norm(F - want) / np.linalg.norm(want))
                      for F in (E, sla.expm(X)))
    level = len(X) * 2.0 ** -53 * max(1.0, np.abs(X).sum(axis=0).max())
    assert err <= 2 * max(err_scipy, level), (err, err_scipy)
    return err, err_scipy


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_exponential_pair_matches_expm_of_minus_x(n):
    # exp(-X) = J^T exp(X)^T J for X = J S, S complex symmetric; exp(X) itself
    # against mpmath on the first form (a 20 x 20 mpmath expm takes ~0.8 s)
    rng = np.random.default_rng(100 + n)
    J = standard_J(n)
    for k in range(3):
        Q = random_complex_symmetric(rng, n)
        for t in (1e-6, 1e-3, 0.1, 1.0):
            polar = -2j * t * J @ Q
            for X in (polar, 1j * t * J @ Q):
                E, Einv = expm_hamiltonian(X)
                if k == 0 and X is polar:
                    expm_errors(E, X)
                want = sla.expm(-X)
                assert np.linalg.norm(Einv - want) <= 1e-13 * np.linalg.norm(want), t


def test_expm_of_a_stack_matches_mpmath():
    # every degree, on both sides of each theta, with and without squaring,
    # real and complex, for n = 1, 2, 5 and (fewer: a 20 x 20 mpmath expm
    # takes ~0.8 s) 10; one stacked call per n and kind
    rng = np.random.default_rng(17)
    norms = [f * theta for theta, _ in _EXPM_PADE.values() for f in (0.99, 1.01)]
    norms += [12.0, 50.0]
    errors = []
    for n in (1, 2, 5, 10):
        J = standard_J(n)
        G = rng.standard_normal((2, 2 * n, 2 * n))
        complex_, real = 1j * J @ (G[0] + G[0].T + 1j * (G[1] + G[1].T)), J @ (G[0] + G[0].T)
        cases = ([(K, c) for K in (complex_, real) for c in norms] if n < 10 else
                 [(complex_, norms[0]), (real, norms[-4]), (complex_, norms[-1])])
        for kind in (complex_, real):
            X = np.stack([c * K / np.abs(K).sum(axis=0).max() for K, c in cases if K is kind])
            E = expm(X)
            assert E.dtype == kind.dtype
            errors += [expm_errors(Ek, Xk) for Ek, Xk in zip(E, X)]
    err, err_scipy = np.array(errors).T
    assert np.median(err) <= 1.25 * np.median(err_scipy)


@pytest.mark.parametrize("form", [heat(1), heat(2), kolmogorov()])
def test_expm_of_a_nilpotent_jq_matches_mpmath(form):
    # heat's JQ squares to zero: U = X and V = 2I exactly, so exp(X) = I + X
    # to the last bit, at any scale and also after squaring
    JQ = standard_J(form.n) @ form.Q
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.uniform(-4, 1.7, 12) * np.exp(2j * np.pi * rng.uniform(size=12))
    X = np.stack([c * JQ for c in (1e-3j, 0.3j, -2j, 40j, 0.3, *scales)])
    E = expm(X)
    for Ek, Xk in zip(E, X):
        expm_errors(Ek, Xk)
        if np.array_equal(JQ @ JQ, 0 * JQ):
            assert np.array_equal(Ek, np.eye(len(Xk)) + Xk)


def test_expm_of_an_empty_stack():
    for dtype in (float, complex):
        E = expm(np.zeros((0, 4, 4), dtype=dtype))
        assert E.shape == (0, 4, 4) and E.dtype == dtype


def test_exponential_pair_of_a_stack_matches_each_entry():
    rng = np.random.default_rng(7)
    J = standard_J(3)
    X = np.stack([t * J @ random_complex_symmetric(rng, 3) for t in (0.01, 0.5, 2.0)])
    E, Einv = expm_hamiltonian(X)
    for k in range(len(X)):
        Ek, Ekinv = expm_hamiltonian(X[k])
        assert np.array_equal(E[k], Ek) and np.array_equal(Einv[k], Ekinv)


def test_j_cos_is_exactly_skew():
    # the Pfaffian needs J cos(tJQ) skew, and the pair gives it to the last bit
    rng = np.random.default_rng(43)
    ts = np.concatenate([[0.0], np.logspace(-6, 0, 13)])
    for n in (1, 2, 5, 10):
        J = standard_J(n)
        C, _, _ = cos_sin_sqrt_det(random_complex_symmetric(rng, n) / 2, ts)
        JC = J @ C
        assert np.all(JC + JC.mT == 0), n


def test_arctan_zero():
    assert np.allclose(mat_arctan(np.zeros((2, 2))), np.zeros((2, 2)), atol=1e-14)


def test_arctan_on_J_closed_form():
    theta = 0.2
    oracle = series_on_J2(
        lambda k: ((-1) ** ((k - 1) // 2) / k if k % 2 == 1 else 0.0), theta)
    # J2^2 = -I turns the alternating arctan series into the artanh series
    assert np.allclose(oracle, np.arctanh(theta) * J2, atol=1e-12)
    assert np.allclose(mat_arctan(theta * J2), oracle, atol=1e-12)


def test_tan_arctan_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = standard_J(3) @ random_complex_symmetric(rng, 3)
        A *= 0.5 / max(np.abs(np.linalg.eigvals(A)))
        assert np.linalg.norm(tan(mat_arctan(A)) - A) < 1e-9


def test_tan_arctan_roundtrip_radius_07():
    rng = np.random.default_rng(19)
    S = rng.standard_normal((4, 4))
    A = standard_J(2) @ (S + S.T)
    A *= 0.7 / max(np.abs(np.linalg.eigvals(A)))
    assert np.linalg.norm(tan(mat_arctan(A)) - A) < 1e-9


def test_arctan_radius_guard():
    with pytest.raises(SpectralRadiusTooLarge):
        mat_arctan(np.diag([1.2, 0.0]))


# --- branch-tracked sqrt det cos --------------------------------------------

def test_sqrt_det_cos_heat_is_one():
    Q = np.diag([0.0, 1.0]).astype(complex)
    for t in (0.1, 1.0, 7.0):
        r = sqrt_det_cos_tracked(Q, t)
        assert isinstance(r, BranchTrackedScalar)
        assert abs(r.value - 1.0) < 1e-12


def test_sqrt_det_cos_zero_time_exact_one():
    Q = 0.5 * np.eye(2, dtype=complex)
    assert sqrt_det_cos_tracked(Q, 0.0).value == 1.0


def test_sqrt_det_cos_harmonic():
    Q = 0.5 * np.eye(2, dtype=complex)
    r = sqrt_det_cos_tracked(Q, 1.0)
    assert abs(r.value - np.cosh(0.5)) < 1e-11
    r4 = sqrt_det_cos_tracked(Q, 4.0)
    assert abs(r4.value - np.cosh(2.0)) < 1e-10
    det = np.linalg.det(mat_cos(4.0 * standard_J(1) @ Q))
    assert abs(r4.value ** 2 - det) < 1e-10 * abs(det)


def test_sqrt_det_cos_branch_beyond_principal():
    # rotating-damped quadratic: det cos winds past the principal branch
    Q = 0.5 * (1 - 1j) * np.eye(2, dtype=complex)
    t = 4.0
    r = sqrt_det_cos_tracked(Q, t)
    det = np.linalg.det(mat_cos(t * standard_J(1) @ Q))
    assert abs(r.value ** 2 - det) < 1e-10 * abs(det)
    principal = np.sqrt(det)
    assert abs(r.value - principal) > 1e-2 * abs(principal)  # tracking matters


def test_pfaffian_squares_to_det():
    rng = np.random.default_rng(37)
    for m in (2, 4, 6, 10):
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        A = X - X.T
        d = np.linalg.det(A)
        assert abs(pfaffian(A) ** 2 - d) < 1e-12 * abs(d)
    assert pfaffian(standard_J(3)) == -1  # (-1)^{n(n-1)/2} for [[0, I], [-I, 0]]


def test_pfaffian_stack_matches_each_matrix():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    A = X - X.transpose(0, 2, 1)
    A[2, 0, :] = A[2, :, 0] = 0  # a zero column: Pf = 0 for that entry only
    pf = pfaffian(A)
    assert pf.shape == (5,)
    for j in range(5):
        assert abs(pf[j] - pfaffian(A[j])) <= 1e-13 * abs(pf[j])
    assert pf[2] == 0 and (pf[[0, 1, 3, 4]] != 0).all()


def test_sqrt_det_cos_stack_matches_scalar():
    Q = 0.5 * (1 - 1j) * np.eye(2, dtype=complex)
    ts = np.array([0.0, 0.3, 1.0, 4.0])
    r = sqrt_det_cos_tracked(Q, ts)
    assert r.value.shape == ts.shape and r.steps_used == 0
    for j, t in enumerate(ts):
        assert abs(r.value[j] - sqrt_det_cos_tracked(Q, t).value) <= 1e-14 * abs(r.value[j])


def continued_sqrt_det_cos(Q, t, steps=4096):
    """Reference branch: walk det cos(sJQ) = prod_j cos(s lambda_j) over fine
    uniform steps of [0, t] and multiply the principal square roots of the
    step ratios."""
    lam = np.linalg.eigvals(standard_J(Q.shape[0] // 2) @ Q)
    s = np.linspace(0.0, t, steps + 1)
    d = np.cos(np.outer(s, lam)).prod(axis=1)
    ratio = d[1:] / d[:-1]
    assert np.abs(np.angle(ratio)).max() < np.pi / 4  # steps resolve the branch
    return np.sqrt(ratio).prod()


def test_sqrt_det_cos_matches_reference_continuation():
    rng = np.random.default_rng(31)
    cases = [(0.5 * (1 - 1j) * np.eye(2, dtype=complex), 4.0)]  # winding
    for _ in range(12):
        n = int(rng.integers(1, 6))
        G = rng.standard_normal((2 * n, 2 * n))
        S = rng.standard_normal((2 * n, 2 * n))
        Q = G @ G.T + 1j * (S + S.T)
        cases.append((Q / np.linalg.norm(Q, 2), rng.uniform(0.05, 1.0)))
    for Q, t in cases:
        ref = continued_sqrt_det_cos(Q, t)
        assert abs(sqrt_det_cos_tracked(Q, t).value - ref) < 1e-12 * abs(ref)


def test_sqrt_det_cos_conjugate_point():
    # pure rotation: q = i (x^2 + xi^2)/2 hits det cos = 0 at t = pi
    Q = 0.5j * np.eye(2, dtype=complex)
    with pytest.raises(ConjugatePointOnPath):
        sqrt_det_cos_tracked(Q, 4.0)


# --- null spaces and PSD checks ---------------------------------------------

def test_null_space_zero_matrix():
    B = null_space(np.zeros((2, 2)))
    assert B.shape == (2, 2)
    assert np.allclose(B.conj().T @ B, np.eye(2), atol=1e-12)


def test_null_space_rank_one():
    B = null_space(np.diag([1.0, 0.0]))
    assert B.shape == (2, 1)
    assert abs(abs(B[1, 0]) - 1.0) < 1e-12


def test_null_space_product_rank():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
    B = null_space(A, tol=1e-9)
    assert B.shape == (5, 2)
    assert np.allclose(B.conj().T @ B, np.eye(2), atol=1e-12)
    smax = np.linalg.norm(A, 2)
    assert np.linalg.norm(A @ B, axis=0).max() < 10 * 1e-9 * max(1.0, smax)


def test_psd_check_examples():
    ok, lam = psd_check(np.eye(2))
    assert ok and abs(lam - 1.0) < 1e-14
    ok, lam = psd_check(np.diag([1.0, -0.5]))
    assert not ok and abs(lam + 0.5) < 1e-14


def test_psd_check_gram():
    rng = np.random.default_rng(29)
    B = rng.standard_normal((4, 4))
    ok, lam = psd_check(B.T @ B)
    assert ok and lam >= -1e-12

"""Matrix-function kernel tests.

Expected values for the J-plane closed forms are derived from J^2 = -I:
for any complex z, exp(zJ) = cos(z) I + sin(z) J, hence cos(theta J) =
cos(i theta)... evaluated through the even/odd series: cos(theta J) =
cosh(theta) I and arctan(theta J) = artanh(theta) J.  The oracle helper
below recomputes these from truncated scalar series, independent of the
matrix routines under test.
"""
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from qsemi import (
    BranchTrackedScalar,
    QuadraticForm,
    mat_cos,
    mat_log_principal,
    mehler_symbol,
    sqrt_det_cos_tracked,
    standard_J,
)
from qsemi.errors import (
    BranchCut,
    ConjugatePointOnPath,
    DegenerateTime,
    NonSquare,
    QsemiError,
)
from qsemi.fixtures import fokker_planck, harmonic, heat, kolmogorov, shifted_diagonal
from qsemi.matfun import (
    _LOG_BLOCK,
    _LOG_ROOT,
    _LOG_TAYLOR_THETA,
    _LOG_THETAS,
    _LOG_TOP,
    _MAX_STEPS,
    _TAYLOR_THETA,
    Checks,
    _norm1,
    _sqrt_db,
    _taylor_ps,
    cos_sin_sqrt_det,
    expm,
    expm_grid,
    frobenius,
    log_principal,
    pfaffian,
    relative_distance,
    symplectic_inverse,
)
from qsemi.mehler import twisted_form_matrix

from oracles import mp_expm, mp_logm, to_complex

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
        ref = to_complex(mp_logm(A[k], 30))
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
    X = np.stack([0.99 * theta * K / np.abs(K).sum(axis=0).max()
                  for theta in _LOG_TAYLOR_THETA.values()])
    L = log_principal(np.eye(4) + X, X, 1e-9, Checks())
    for Lk, Xk in zip(L, X):
        with mpmath.workdps(30):
            want = to_complex(mp_logm(mpmath.eye(4) + mpmath.matrix(Xk.tolist()), 30))
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


def log_by_the_branch_test(Z, X, tol, checks):
    """log_principal as it ran on every stack before its branch-free path:
    the eigenvalues of the entries beyond |X|_1 <= (1 - tol) / (1 + tol)
    (none, on a stack without such entries), then Z and X cleaned and copied
    in their own dtype."""
    m = Z.shape[-1]
    I = np.eye(m)
    checks(~np.isfinite(Z).all(axis=(-2, -1)), NonSquare,
           "matrix has non-finite entries", module="matfun", operation="mat_log_principal")
    Z, X = checks.clean(Z, I), checks.clean(X, 0)
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

    checks((zero | neg).any(axis=-1), BranchCut, cut, module="matfun",
           operation="mat_log_principal")
    Z, X = np.array(checks.clean(Z, I)), np.array(checks.clean(X, 0))
    roots = np.zeros(Z.shape[:-2], dtype=int)
    need = _norm1(X) > _LOG_ROOT
    for _ in range(_MAX_STEPS):
        if not need.any():
            break
        Z[need] = _sqrt_db(Z[need])
        X[need] = np.linalg.solve(Z[need] + I, X[need])
        roots += need
        need &= _norm1(X) > _LOG_ROOT
    top = np.searchsorted(_LOG_THETAS, _norm1(X))
    return _taylor_ps(X, top, _LOG_BLOCK, _LOG_TOP) * 2.0 ** roots[..., None, None]


def test_log_skips_the_branch_test_bit_for_bit(monkeypatch):
    # near I (no root), rooted (_LOG_ROOT < |X|_1 < 1) and far (|X|_1 > 1)
    # entries, complex and real: a stack with no far entry takes no
    # eigenvalues, and every stack's logs, and its BranchCut, are those of the
    # branch test run as before; a real stack's logs are real
    rng = np.random.default_rng(37)
    m = 4

    def entries(norms, dtype):
        G = rng.standard_normal((len(norms), m, m)).astype(dtype)
        if dtype is complex:
            G += 1j * rng.standard_normal((len(norms), m, m))
        return np.eye(m) + np.array(norms)[:, None, None] * G / _norm1(G)[:, None, None]

    for dtype in (complex, float):
        near = entries([1e-8, 0.1, 0.4], dtype)
        rooted = entries([0.6, 0.8, 0.99], dtype)
        far = entries([0.2, 0.4], dtype) + 1.5 * np.eye(m)  # |X|_1 > 1.5
        cut = np.diag([-3.0, 1.0, 1.0, 1.0]).astype(dtype)[None]
        for Z in (np.concatenate([near, rooted]), rooted, near[:1], near[:0],
                  np.concatenate([far[:1], near, rooted, far[1:]])):
            for checks in (Checks(), Checks(Z.shape[:-2])):
                got = log_principal(Z, Z - np.eye(m), 1e-9, checks)
                want = log_by_the_branch_test(Z, Z - np.eye(m), 1e-9, Checks())
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want)
        Z = np.concatenate([near, rooted, far])
        assert np.array_equal(log_principal(Z, Z - np.eye(m), 1e-9, Checks())[:6],
                              log_principal(Z[:6], Z[:6] - np.eye(m), 1e-9, Checks()))
        Z = np.concatenate([near, rooted, cut, far, cut])
        with pytest.raises(BranchCut) as got:
            log_principal(Z, Z - np.eye(m), 1e-9, Checks())
        with pytest.raises(BranchCut) as want:
            log_by_the_branch_test(Z, Z - np.eye(m), 1e-9, Checks())
        assert got.value.index == want.value.index == 6
        assert str(got.value) == str(want.value)
        got, want = Checks(Z.shape[:-2]), Checks(Z.shape[:-2])
        assert np.array_equal(log_principal(Z, Z - np.eye(m), 1e-9, got),
                              log_by_the_branch_test(Z, Z - np.eye(m), 1e-9, want))
        assert got.bad.tolist() == want.bad.tolist()
        assert {i: str(e) for i, e in got.errors.items()} == {
            i: str(e) for i, e in want.errors.items()}

    def refused(*args):
        raise AssertionError("eigvals called")
    monkeypatch.setattr(np.linalg, "eigvals", refused)
    Z = np.concatenate([near, rooted])
    log_principal(Z, Z - np.eye(m), 1e-9, Checks())
    with pytest.raises(AssertionError, match="eigvals called"):
        log_principal(far, far - np.eye(m), 1e-9, Checks())


def log_remainder_excess(m: int, theta):
    """sum_{j > m} theta^j / j - 2^-53 (-log(1 - theta)), at the working
    precision: the Taylor sum of degree m meets its bound at |X|_1 = theta
    where this is <= 0."""
    total = -mpmath.log(1 - theta)
    return total - mpmath.fsum(theta ** j / j for j in range(1, m + 1)) - 2.0 ** -53 * total


def test_each_log_theta_keeps_the_remainder_below_u():
    # at 60 digits: each theta_m keeps the bound, and it is the root rounded
    # down to its 6 digits, so 1e-5 more breaks it.  The degrees are the
    # multiples of the block length 4 that _LOG_BLOCK and _LOG_TOP serve, and
    # the top theta, the root threshold, lies above the Pade table's 0.466
    degrees, thetas = zip(*_LOG_TAYLOR_THETA.items())
    assert list(degrees) == list(range(4, 4 * len(degrees) + 1, 4))
    assert all(a < b for a, b in zip(thetas, thetas[1:]))
    assert _LOG_ROOT == thetas[-1] >= 0.466
    with mpmath.workdps(60):
        for m, theta in _LOG_TAYLOR_THETA.items():
            assert log_remainder_excess(m, mpmath.mpf(theta)) <= 0, m
            assert log_remainder_excess(m, mpmath.mpf(theta) * (1 + 1e-5)) > 0, m
    c = [0.0] + [(-1) ** (j + 1) / j for j in range(1, 4 * len(degrees) + 1)]
    assert _LOG_BLOCK.tolist() == [c[4 * i:4 * i + 4] for i in range(len(degrees))]
    assert _LOG_TOP.tolist() == c[4::4]


def mp_log1p_of_multiples(K, a, dps=30):
    """log(I + a_j K) for each a_j, to dps digits, from one eigendecomposition
    K = V D V^-1 at dps digits: V log(I + a_j D) V^-1, the principal log while
    every |a_j lambda| < 1.  mpmath.logm at k = 20 takes seconds per matrix."""
    with mpmath.workdps(dps):
        d, V = mpmath.eig(mpmath.matrix(K.tolist()))
        Vinv = mpmath.inverse(V)
        out = []
        for aj in a:
            f = [mpmath.log(1 + mpmath.mpf(float(aj)) * lam) for lam in d]
            out.append(np.array((V * mpmath.diag(f) * Vinv).tolist(), dtype=complex))
        return np.array(out)


@pytest.mark.parametrize("k", [2, 4, 10, 20])
def test_log_just_below_and_above_each_theta_matches_mpmath(k):
    # |X|_1 at 0.999 and 1.001 theta_m, where the degree changes; above the
    # top theta the entry takes one square root.  K has small integer parts
    # and a_j 24 bits, so X = a_j K is exact and the reference is the log of
    # the very X the stack holds
    rng = np.random.default_rng(100 + k)
    K = (rng.integers(-8, 9, (k, k)) + 1j * rng.integers(-8, 9, (k, k))).astype(complex)
    thetas = np.array(list(_LOG_TAYLOR_THETA.values()))
    a = (np.concatenate([0.999 * thetas, 1.001 * thetas]) / _norm1(K)).astype(np.float32)
    X = a.astype(float)[:, None, None] * K
    L = log_principal(np.eye(k) + X, X, 1e-9, Checks())
    want = mp_log1p_of_multiples(K, a)
    err = np.linalg.norm(L - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
    assert err.max() <= 1e-15, (err.argmax(), err.max())
    if k <= 4:  # the reference against mpmath.logm itself
        for j in (0, len(a) - 1):
            assert np.linalg.norm(want[j] - to_complex(mp_logm(np.eye(k) + X[j], 30))) <= 1e-25


@pytest.mark.parametrize("k", [1, 2, 4, 10, 20])
def test_log_entry_is_its_single_entry_result(k):
    # every degree, entries at and near I, rooted entries and far ones (with
    # eigenvalues), shuffled: each entry of the stack is its log alone, to the
    # last bit, through log_principal and mat_log_principal
    rng = np.random.default_rng(200 + k)
    G = rng.standard_normal((2, 40, k, k))
    K = G[0] + 1j * G[1]
    K /= _norm1(K)[:, None, None]
    thetas = np.array(list(_LOG_TAYLOR_THETA.values()))
    norms = np.concatenate([0.7 * thetas, 0.99 * thetas, [0.0, 1e-17, 1e-9, 0.6, 0.8, 0.95]])
    X = norms[:, None, None] * K[:len(norms)]
    Z = np.concatenate([np.eye(k) + X, sla.expm(3 * K[-6:])])
    Z = Z[rng.permutation(len(Z))]
    L = mat_log_principal(Z)
    for j, Zj in enumerate(Z):
        assert np.array_equal(L[j], mat_log_principal(Zj))
        assert np.array_equal(L[j], log_principal(Zj, Zj - np.eye(k), 1e-9, Checks()))


def test_log_without_roots_takes_no_solve(monkeypatch):
    # up to the top theta, 0.5537, past the Pade table's 0.466: matmuls only;
    # a rooted entry takes its Denman-Beavers inverses
    rng = np.random.default_rng(41)
    m = 6
    G = rng.standard_normal((2, 8, m, m))
    K = G[0] + 1j * G[1]
    X = np.linspace(0.05, _LOG_ROOT, 8)[:, None, None] * K / _norm1(K)[:, None, None]
    Z = np.eye(m) + X

    def refused(*args, **kwargs):
        raise AssertionError("solve or inv called")

    want = log_principal(Z, X, 1e-9, Checks())
    monkeypatch.setattr(np.linalg, "solve", refused)
    monkeypatch.setattr(np.linalg, "inv", refused)
    assert np.array_equal(log_principal(Z, X, 1e-9, Checks()), want)
    with pytest.raises(AssertionError, match="solve or inv called"):
        log_principal(Z * 1.01, Z * 1.01 - np.eye(m), 1e-9, Checks())


def test_log_past_the_root_cap_fails_each_entry_with_no_traceback():
    # the nilpotent part of I + N only halves with each root: after 64 roots
    # |X|_1 is still 1e300 / 2^64, and searchsorted ran off the thetas
    Z = np.array([[[1.0, 1e300], [0.0, 1.0]], [[2.0, 0.0], [0.0, 3.0]]])
    with pytest.raises(DegenerateTime, match=f"5.421e.280 exceeds .* after {_MAX_STEPS} square"):
        mat_log_principal(Z[0])
    checks = Checks(2)
    L = log_principal(Z, Z - np.eye(2), 1e-9, checks)
    assert checks.bad.tolist() == [True, False] and list(checks.errors) == [0]
    assert np.array_equal(L[1], mat_log_principal(Z[1]))


def test_zero_size_matrices():
    # a 0 x 0 matrix, a stack of them and an empty stack keep their shapes
    for A in (np.zeros((0, 0)), np.zeros((3, 0, 0)), np.zeros((0, 4, 4))):
        for f in (expm, mat_log_principal, arctan):
            assert f(A).shape == A.shape, f
        assert symplectic_inverse(expm(A)).shape == A.shape
    assert expm_grid(np.zeros((0, 0)), [0.1]).shape == (1, 0, 0)
    assert expm_grid(np.zeros((0, 0)), [[0.1, 0.2]]).shape == (1, 2, 0, 0)


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


def test_clean_copies_only_once_an_entry_has_failed():
    # until an entry fails, clean hands X back as it is, with no copy
    X = np.arange(12.0).reshape(3, 2, 2)
    checks = Checks((3,))
    assert checks.clean(X, 0) is X
    checks(np.array([False, True, False]), NonSquare, "planted", module="m", operation="a")
    cleaned = checks.clean(X, -1.0)
    assert cleaned is not X and np.array_equal(X, np.arange(12.0).reshape(3, 2, 2))
    assert np.array_equal(cleaned[[0, 2]], X[[0, 2]]) and (cleaned[1] == -1).all()


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


def grid_cases():
    """(B, times, deep) for B = 1j JQ of the graph fixtures and of ten seeded
    random accretive forms, n <= 5: the times just below and just above each
    theta_m of B's 1-norm, where the degree changes, and t = 4, past theta_32
    on the random forms (B has 1-norm above 1.12 on each), so that a squaring
    runs; deep, the times 2.5 and 20 theta_32 of it, take 2 and 5."""
    rng = np.random.default_rng(61)
    forms = [heat(1), harmonic(1), kolmogorov(), fokker_planck(), shifted_diagonal()]
    for n in (1, 1, 1, 1, 2, 2, 2, 3, 3, 5):
        G = rng.standard_normal((2, 2 * n, 2 * n))
        Q = G[0] @ G[0].T + 1j * (G[1] + G[1].T)
        forms.append(QuadraticForm(n, Q / np.linalg.norm(Q, 2)))
    for q in forms:
        B = 1j * standard_J(q.n) @ q.Q
        thetas = np.array(list(_TAYLOR_THETA.values())) / _norm1(B)
        yield (B, np.concatenate([thetas * (1 - 1e-3), thetas * (1 + 1e-3), [4.0]]),
               thetas[-1] * np.array([2.5, 20.0]))


def test_expm_grid_matches_mpmath():
    # against 40 digits of exp(tB), entry by entry: no form's worst relative
    # error exceeds both scipy.linalg.expm's worst on the same stack (whose
    # input, tB in floats, has its rounding) and 2u.  Deeper in the squarings
    # both err at the level of exp's condition (expm_errors)
    squared = 0
    for B, ts, deep in grid_cases():
        E, ref = expm_grid(B, ts), sla.expm(ts[:, None, None] * B)
        worst = np.zeros(2)
        for k, t in enumerate(ts):
            want = to_complex(mp_expm(B, t, 40))
            worst = np.maximum(worst, [np.linalg.norm(F[k] - want) / np.linalg.norm(want)
                                       for F in (E, ref)])
        assert worst[0] <= max(worst[1], 2 * 2.0 ** -53), (len(B), worst)
        squared += ts[-1] * _norm1(B) > max(_TAYLOR_THETA.values())
        for t, Ek in zip(deep, expm_grid(B, deep)):
            expm_errors(Ek, t * B)
    assert squared >= 10


def test_expm_grid_of_a_nilpotent_jq_is_i_plus_tb():
    # heat's JQ squares to zero: every power past the first is exactly zero,
    # so each entry is I + tB to the last bit, also after squarings
    ts = np.concatenate([[0.0], np.logspace(-4, 3, 15)])
    for q in (heat(1), heat(2)):
        JQ = standard_J(q.n) @ q.Q.real
        for c in (1.0, 1j, -2j, 0.3 - 0.7j):
            E = expm_grid(c * JQ, ts)
            assert np.array_equal(E, np.eye(2 * q.n) + ts[:, None, None] * (c * JQ))


def test_expm_grid_entry_is_its_single_time_result():
    # an entry of a sweep equals its time alone, to the last bit; t = 0 gives
    # exactly I, a scalar time one matrix, and a time with |t| |B|_1 not
    # finite nan
    rng = np.random.default_rng(67)
    G = rng.standard_normal((2, 6, 6))
    for B in (G[0], G[0] + 1j * G[1]):
        ts = np.concatenate([[0.0, -0.5], np.logspace(-6, 1.5, 30)])
        E = expm_grid(B, ts)
        assert E.dtype == B.dtype and E.shape == ts.shape + B.shape
        for k, t in enumerate(ts):
            assert np.array_equal(E[k], expm_grid(B, t))
        assert np.array_equal(E[0], np.eye(6))
        assert np.isnan(expm_grid(B, [np.nan, np.inf, 1e308])).all(axis=(-2, -1)).all()


def taylor_backward_error_bound(m: int, theta, terms: int = 150):
    """sum_{k > m} |c_k| theta^(k - 1) for log(e^-x T_m(x)) = sum_k c_k x^k,
    over its first `terms` terms past x^m, at the working precision: the
    bound on |dX|_1 / |X|_1 of T_m(X) = exp(X + dX) at |X|_1 = theta.  The
    series of log T_m comes from its derivative, T_m l' = T_m', with the
    coefficients f_j = 1/j! of T_m."""
    K = m + terms
    f = [1 / mpmath.factorial(j) if j <= m else mpmath.mpf(0) for j in range(K + 1)]
    l = [mpmath.mpf(0)] * (K + 1)
    for k in range(1, K + 1):
        l[k] = f[k] - mpmath.fsum(j * l[j] * f[k - j] for j in range(1, k)) / k
    return mpmath.fsum(abs(l[k]) * theta ** (k - 1) for k in range(m + 1, K + 1))


def test_each_taylor_theta_keeps_the_backward_error_below_u():
    # at 60 digits: each theta_m keeps the bound <= 2^-53, and it is the
    # root rounded down to its 6 digits, so 1e-5 more breaks it
    with mpmath.workdps(60):
        u = mpmath.mpf(2) ** -53
        for m, theta in _TAYLOR_THETA.items():
            assert taylor_backward_error_bound(m, mpmath.mpf(theta)) <= u, m
            assert taylor_backward_error_bound(m, mpmath.mpf(theta) * (1 + 1e-5)) > u, m


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
    want = to_complex(mp_expm(X, 1.0, 30))
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
                E = expm(X)
                Einv = symplectic_inverse(E)
                if k == 0 and X is polar:
                    expm_errors(E, X)
                want = sla.expm(-X)
                assert np.linalg.norm(Einv - want) <= 1e-13 * np.linalg.norm(want), t


def test_expm_of_a_stack_matches_mpmath():
    # every degree, on both sides of each theta, with and without squaring,
    # real and complex, for n = 1, 2, 5 and (fewer: a 20 x 20 mpmath expm
    # takes ~0.8 s) 10; one stacked call per n and kind
    rng = np.random.default_rng(17)
    norms = [f * theta for theta in _TAYLOR_THETA.values() for f in (0.99, 1.01)]
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
    # heat's JQ squares to zero: every power past the first is exactly zero,
    # so exp(X) = I + X to the last bit, at any scale and also after squaring
    JQ = standard_J(form.n) @ form.Q
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.uniform(-4, 1.7, 12) * np.exp(2j * np.pi * rng.uniform(size=12))
    X = np.stack([c * JQ for c in (1e-3j, 0.3j, -2j, 40j, 0.3, *scales)])
    E = expm(X)
    for Ek, Xk in zip(E, X):
        expm_errors(Ek, Xk)
        if np.array_equal(JQ @ JQ, 0 * JQ):
            assert np.array_equal(Ek, np.eye(len(Xk)) + Xk)


def reference_expm(X):
    """expm as its Taylor sums read, entry by entry and out of place: the
    least degree m of _TAYLOR_THETA whose theta bounds |X|_1, else degree 32
    on X / 2^s, then B_0 + X^4 (B_1 + ... + X^4 (B_(r-1) + X^4 / m!)) with
    B_i the terms X^(4i+j) / (4i+j)!, j < 4 (no I in B_0), I added last and
    s squarings.  Each block is the same contraction of four coefficients
    with the stacked powers that expm takes, so the bits agree."""
    k = X.shape[-1]
    A = X.reshape(-1, k, k).astype(np.result_type(X, float))
    E = np.empty_like(A)
    c = np.array([0.0] + [1 / float(math.factorial(j)) for j in range(1, 33)])
    I = np.eye(k)
    for e, Ae in enumerate(A):
        norm = np.abs(Ae).sum(axis=0).max()
        m = next((m for m, theta in _TAYLOR_THETA.items() if norm <= theta), 32)
        s = int(np.ceil(np.log2(norm / _TAYLOR_THETA[32]))) if norm > _TAYLOR_THETA[32] else 0
        Ae = Ae * 2.0 ** -s
        P = np.stack([I, Ae, Ae @ Ae, Ae @ Ae @ Ae]).astype(A.dtype)
        X4 = P[2] @ P[2]
        L = c[m] * X4
        for i in range(m // 4 - 1, -1, -1):
            if i < m // 4 - 1:
                L = L @ X4
            B = c[4 * i:4 * i + 4] @ P.reshape(4, -1).view(float)
            L = L + B.view(A.dtype).reshape(k, k)
        L = L + I
        with np.errstate(over="ignore", invalid="ignore"):  # as matfun._square
            for _ in range(s):
                L = L @ L
        E[e] = L
    return E.reshape(X.shape)


def test_expm_matches_its_out_of_place_evaluation():
    # entries of every degree, the top one with and without squarings, real
    # and complex, in one stack: equal to the last bit (== treats -0.0 as 0.0)
    rng = np.random.default_rng(29)
    norms = [f * theta for theta in _TAYLOR_THETA.values() for f in (0.5, 0.99)]
    norms += [0.0, 6.0, 40.0, 1e3]
    for k in (1, 2, 4, 10, 20):
        G = rng.standard_normal((2, len(norms), k, k))
        for X in (G[0], G[0] + 1j * G[1]):
            X = X * (np.array(norms) / _norm1(X))[:, None, None]
            E = expm(X)
            assert E.dtype == X.dtype
            assert np.array_equal(E, reference_expm(X)), (k, X.dtype)
    # heat's square-zero JQ gives exactly I + X
    JQ = standard_J(1) @ heat(1).Q
    X = np.stack([c * JQ for c in (1e-3j, 0.3j, -2j, 40j, 0.3)])
    assert np.array_equal(expm(X), np.eye(2) + X)
    assert np.array_equal(expm(X), reference_expm(X))
    # a non-finite entry comes out non-finite, and leaves the others alone
    X = np.stack([0.3 * J2, np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), 9 * J2])
    with np.errstate(invalid="ignore", over="ignore"):
        E = expm(X)
    assert not np.isfinite(E[1:3]).all(axis=(-2, -1)).any()
    assert np.array_equal(E[[0, 3]], reference_expm(X[[0, 3]]))


def test_expm_squares_an_overflowing_entry_quietly():
    # the first stack of test_expm_matches_its_out_of_place_evaluation (real,
    # k = 1), whose last entry, of norm 1e3, overflows in its squarings: it
    # comes out inf with no warning, and the others as they would alone
    rng = np.random.default_rng(29)
    norms = [f * theta for theta in _TAYLOR_THETA.values() for f in (0.5, 0.99)]
    norms += [0.0, 6.0, 40.0, 1e3]
    X = rng.standard_normal((2, len(norms), 1, 1))[0]
    X = X * (np.array(norms) / _norm1(X))[:, None, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = expm(X)
    assert np.isposinf(E[-1]).all()
    assert np.array_equal(E[:-1], reference_expm(X[:-1]))


def test_expm_of_an_empty_stack():
    for dtype in (float, complex):
        E = expm(np.zeros((0, 4, 4), dtype=dtype))
        assert E.shape == (0, 4, 4) and E.dtype == dtype


def test_exponential_pair_of_a_stack_matches_each_entry():
    rng = np.random.default_rng(7)
    J = standard_J(3)
    X = np.stack([t * J @ random_complex_symmetric(rng, 3) for t in (0.01, 0.5, 2.0)])
    E, Einv = expm(X), symplectic_inverse(expm(X))
    for k in range(len(X)):
        Ek, Ekinv = expm(X[k]), symplectic_inverse(expm(X[k]))
        assert np.array_equal(E[k], Ek) and np.array_equal(Einv[k], Ekinv)
    # expm itself: entries of every degree, the top one with and without
    # squarings, real and complex, shuffled in one stack, keep their dtype
    # and equal their exponential alone to the last bit
    rng = np.random.default_rng(29)
    norms = [f * theta for theta in _TAYLOR_THETA.values() for f in (0.5, 0.99)]
    norms += [0.0, 6.0, 40.0, 1e3]
    for k in (1, 2, 4, 10, 20):
        G = rng.standard_normal((2, len(norms), k, k))
        for X in (G[0], G[0] + 1j * G[1]):
            X = X * (rng.permutation(norms) / _norm1(X))[:, None, None]
            E = expm(X)
            assert E.dtype == X.dtype
            for j, Xj in enumerate(X):
                assert np.array_equal(expm(Xj), E[j]), (k, X.dtype, j)


def test_j_cos_is_exactly_skew():
    # the Pfaffian needs J cos(tJQ) skew, and the pair gives it to the last bit
    rng = np.random.default_rng(43)
    ts = np.concatenate([[0.0], np.logspace(-6, 0, 13)])
    for n in (1, 2, 5, 10):
        J = standard_J(n)
        C, _, _ = cos_sin_sqrt_det(random_complex_symmetric(rng, n) / 2, ts)
        JC = J @ C
        assert np.all(JC + JC.mT == 0), n


def arctan(A):
    """arctan of each matrix A of a stack of spectral radius < 1, as
    log(I + X) / 2i with X = (I - iA)^-1 2iA = (I + iA)(I - iA)^-1 - I: X is
    formed with no cancellation and handed to log_principal as its X, the
    parameter that keeps a caller's more accurate X."""
    I = np.eye(A.shape[-1])
    X = np.linalg.solve(I - 1j * A, 2j * A)
    return log_principal(I + X, X, 1e-9, Checks()) / 2j


def test_arctan_zero():
    assert np.allclose(arctan(np.zeros((2, 2))), np.zeros((2, 2)), atol=1e-14)


def test_arctan_on_J_closed_form():
    theta = 0.2
    oracle = series_on_J2(
        lambda k: ((-1) ** ((k - 1) // 2) / k if k % 2 == 1 else 0.0), theta)
    # J2^2 = -I turns the alternating arctan series into the artanh series
    assert np.allclose(oracle, np.arctanh(theta) * J2, atol=1e-12)
    assert np.allclose(arctan(theta * J2), oracle, atol=1e-12)


def test_tan_arctan_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = standard_J(3) @ random_complex_symmetric(rng, 3)
        A *= 0.5 / max(np.abs(np.linalg.eigvals(A)))
        assert np.linalg.norm(tan(arctan(A)) - A) < 1e-9


def test_tan_arctan_roundtrip_radius_07():
    rng = np.random.default_rng(19)
    S = rng.standard_normal((4, 4))
    A = standard_J(2) @ (S + S.T)
    A *= 0.7 / max(np.abs(np.linalg.eigvals(A)))
    assert np.linalg.norm(tan(arctan(A)) - A) < 1e-9


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


def test_pfaffian_of_a_0x0_matrix_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1
    pf = pfaffian(np.zeros((2, 3, 0, 0)))
    assert pf.shape == (2, 3) and (pf == 1).all()


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


ROTATION = 0.5j * np.eye(2, dtype=complex)  # i (x^2 + xi^2)/2: det cos(tJQ) = 0 at t = pi


@pytest.mark.parametrize("site, t, error, message, index", [
    (lambda t: mehler_symbol(heat(1), t), [0.1, -0.2], DegenerateTime,
     "[mehler.mehler_symbol] t must be nonnegative", 1),
    (lambda t: mehler_symbol(heat(1), t), -0.5, DegenerateTime,
     "[mehler.mehler_symbol] t must be nonnegative", 0),
    (lambda t: sqrt_det_cos_tracked(heat(1).Q, t), -1.0, ConjugatePointOnPath,
     "[matfun.sqrt_det_cos_tracked] path parameter must be nonnegative", 0),
    (lambda t: sqrt_det_cos_tracked(ROTATION, t), [1.0, 4.0, 5.0], ConjugatePointOnPath,
     "[matfun.sqrt_det_cos_tracked] det cos vanishes on the path: real eigenvalue "
     "0.5 of JQ at t = 4", 1),
    # the first conjugate point, t = pi, where t |JQ|_1 = pi/2 is not certified
    (lambda t: cos_sin_sqrt_det(ROTATION, t), [0.1, np.nextafter(np.pi, 0), np.pi],
     ConjugatePointOnPath, "[matfun.sqrt_det_cos_tracked] det cos vanishes on the "
     "path: real eigenvalue 0.5 of JQ at t = 3.14159", 2),
    (lambda t: sqrt_det_cos_tracked(heat(1).Q + np.eye(2), t), [1.0, 1e6], DegenerateTime,
     "[matfun.sqrt_det_cos_tracked] cos(tJQ) overflows at t = 1e+06", 1)],
    ids=["symbol-grid", "symbol", "root", "conjugate-point", "first-conjugate-point",
         "overflow"])
def test_a_failing_entry_keeps_its_error_and_index(site, t, error, message, index):
    with pytest.raises(error) as info:
        site(np.asarray(t))
    assert (str(info.value), info.value.index) == (message, index)


def test_a_certified_stack_takes_no_eigvals(monkeypatch):
    # max t |JQ|_1 below pi/2 bounds every t |lambda|: no conjugate point to find
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: calls.append(A.shape) or eigvals(A))
    rng = np.random.default_rng(73)
    Q = np.stack([random_complex_symmetric(rng, n) for n in (3, 3)])
    bound = np.abs(standard_J(3) @ Q).sum(axis=-2).max()
    cos_sin_sqrt_det(Q, np.linspace(0, 0.99, 5)[:, None] * np.pi / 2 / bound)
    assert calls == []
    cos_sin_sqrt_det(Q, np.array([0.1, np.pi / 2 / bound])[:, None])
    assert calls == [Q.shape]


# --- scale-safe norms and distances -----------------------------------------

def test_frobenius_is_numpys_norm_where_that_is_finite():
    # the scaling by a power of two is exact: the same bits on matrices of
    # every scale that np.linalg.norm reaches, and a finite norm past them
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = rng.integers(1, 7)
        X = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-150, 150)
        for Y in (X, X + 1j * X[::-1]):
            assert frobenius(Y) == np.linalg.norm(Y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius(np.array([[-1e160, 0], [0, 1]])) == 1e160
        assert frobenius(np.array([[3e200, 4e200j]])) == pytest.approx(5e200, rel=1e-15)
        assert frobenius(np.full((2, 2), 1.5e308)) == np.inf
    assert frobenius(np.zeros((0, 0))) == 0.0


def test_relative_distance_is_the_unscaled_ratio_where_that_is_finite():
    # |X - Y|_F / max(1, |Y|_F): the same bits as the unscaled formula on
    # matrices of every scale it reaches, with numpy's norm of the whole
    # array for one matrix and along the last two axes for a stack
    rng = np.random.default_rng(29)
    for _ in range(200):
        k = rng.integers(1, 7)
        X = rng.standard_normal((2, k, k)) * 10.0 ** rng.uniform(-150, 150)
        Y = X[0] + 1j * X[1] * 10.0 ** rng.uniform(-20, 0)
        want = np.linalg.norm(Y - Y.T) / max(1.0, np.linalg.norm(Y))
        assert relative_distance(Y, Y.T) == want
        axes = (-2, -1)
        want = (np.linalg.norm(X - X.mT, axis=axes)
                / np.maximum(1.0, np.linalg.norm(X, axis=axes)))
        assert np.array_equal(relative_distance(X, X.mT), want)


def test_relative_distance_near_float_range_has_no_overflow():
    # the unscaled ratio reads inf / inf, and X - Y overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = np.array([[1.0, 1.7e308], [-1.7e308, 1.0]])
        assert relative_distance(big, big.T) == 2.0
        assert relative_distance(big, -big.T) == 0.0
        assert relative_distance(np.full((2, 2), 1.5e308), np.zeros((2, 2))) == np.inf
        # each pair of a stack takes its own power of two
        stack = np.stack([big, np.eye(2), [[0.0, 0.5], [0.0, 0.0]]])
        assert relative_distance(stack, stack.mT) == pytest.approx([2.0, 0.0, 0.5 ** 0.5],
                                                                   rel=1e-15)
    assert np.isnan(relative_distance(np.full((1, 1), np.nan), np.eye(1)))

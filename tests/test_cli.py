"""CLI behavior: determinism, exit codes, problem-file parsing, reports."""
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsemi import cli
from qsemi.cli import EXIT_MATH, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, dumps_canonical, main
from qsemi.mehler import twisted_form_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_quietly(capsys, *argv):
    """run_cli with every warning an error, so none reaches stderr unseen."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_analyze_deterministic_bytes(capsys):
    c1, out1 = run_cli(capsys, "analyze", "--fixture", "kolmogorov")
    c2, out2 = run_cli(capsys, "analyze", "--fixture", "kolmogorov")
    assert c1 == c2 == EXIT_OK
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["k0"] == 1
    assert rep["S_dim"] == 2
    assert rep["graph"]["G"] == [0.0, 0.0, 0.0, 0.0]
    assert rep["verdict"].startswith("graph condition holds")


def test_analyze_shifted_diagonal(capsys):
    code, out = run_cli(capsys, "analyze", "--fixture", "shifted-diagonal")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert abs(rep["graph"]["G"][0] - 1.0) < 1e-10
    # the dropped singular value is rounding (3.4e-17 of 2): an exact gap
    assert rep["gap_ratio"] == "inf"


def test_kolmogorov_scaled_by_2_to_the_minus_60_keeps_its_singular_space(capsys, tmp_path):
    # every rank decision is relative to the form's own size, so c q has the
    # S and k0 of q, and its semigroup at time t / c is that of q at t
    Q = np.zeros((4, 4), dtype=complex)
    Q[3, 3], Q[1, 2], Q[2, 1] = 1.0, 0.5j, 0.5j
    Q *= 2.0 ** -60
    path = write_problem(tmp_path, {"n": 2, "Q_re": Q.real.tolist(), "Q_im": Q.imag.tolist()})
    code, rep = run_quietly(capsys, "analyze", path)
    assert code == EXIT_OK
    assert (rep["S_dim"], rep["k0"]) == (2, 1)
    assert rep["verdict"].startswith("graph condition holds")
    code, rep = run_quietly(capsys, "verify", path, "--t", repr(0.01 * 2.0 ** 60))
    assert code == EXIT_OK
    assert rep["passed"] is True


def test_analyze_x_squared_fails_graph(capsys):
    code, out = run_cli(capsys, "analyze", "--fixture", "x-squared")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["graph"] is None
    assert rep["verdict"].startswith("fails")


def test_kernel_x_squared_exit_code(capsys):
    code, out = run_cli(capsys, "kernel", "--fixture", "x-squared", "--t", "0.1")
    assert code == EXIT_MATH
    rep = json.loads(out)
    assert rep["kind"] == "NonIntegrableSymbol"
    assert rep["module"] == "mehler"


@pytest.mark.parametrize("command, flags", [("norms", ["--t", "0.1"]),
                                            ("exponents", ["--t-grid", "1e-3,1e-1,5"])])
def test_norms_of_x_squared_have_no_kernel(capsys, command, flags):
    # the flow exp(-2itJQ) of x^2 has x-xi block B = 0
    code, out = run_cli(capsys, command, "--fixture", "x-squared", *flags)
    assert code == EXIT_MATH
    assert json.loads(out)["kind"] == "NonIntegrableSymbol"


def test_norms_of_harmonic_at_a_long_time(capsys):
    # |g| = (2 pi sinh t)^{-1/2}: exp(-2itJQ) overflows past t = 710, while
    # the norm, and exp(-itJQ), stay in range to t = 1420
    code, out = run_cli(capsys, "norms", "--fixture", "harmonic", "--t", "1000",
                        "--p", "1", "--q", "inf")
    assert code == EXIT_OK
    exact = np.exp(-(np.log(np.pi) + 1000.0) / 2)  # 2 pi sinh t = pi e^t
    assert abs(json.loads(out)["norm"] / exact - 1) <= 1e-12
    code, out = run_cli(capsys, "norms", "--fixture", "harmonic", "--t", "1500")
    assert code == EXIT_MATH and json.loads(out)["kind"] == "DegenerateTime"


#: q = i (x^2 + xi^2)/2, whose semigroup is the Schrodinger evolution of the
#: harmonic oscillator: |g| = (2 pi |sin t|)^{-1/2}, past the conjugate point
#: pi/2 of its Mehler symbol too
SCHRODINGER_PROBLEM = {"n": 1, "Q_re": [[0, 0], [0, 0]], "Q_im": [[0.5, 0], [0, 0.5]]}


def test_norms_of_the_schrodinger_form(capsys, tmp_path):
    path = write_problem(tmp_path, SCHRODINGER_PROBLEM)
    for t in (1.0, 3.5):
        code, out = run_cli(capsys, "norms", path, "--t", str(t), "--p", "1", "--q", "inf")
        assert code == EXIT_OK
        exact = (2 * np.pi * abs(np.sin(t))) ** -0.5
        assert abs(json.loads(out)["norm"] / exact - 1) <= 1e-14
    # Re K = 0: no (2, inf) norm
    code, out = run_cli(capsys, "norms", path, "--t", "1", "--p", "2", "--q", "inf")
    assert code == EXIT_MATH
    assert json.loads(out)["kind"] == "NonIntegrable"


def test_verify_kolmogorov(capsys):
    code, out = run_cli(capsys, "verify", "--fixture", "kolmogorov", "--t", "0.05")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["passed"] is True
    assert rep["matrix_residual"] < 1e-9
    assert rep["kernel_residual"] < 1e-6


def test_verify_beyond_the_default_grid_extends_it(capsys):
    # with no grid given, decompose's default grid reaches out to t
    code, out = run_cli(capsys, "verify", "--fixture", "fokker-planck", "--t", "0.3")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["passed"] is True


def test_verify_fokker_planck_long_horizon(capsys):
    # the closed-form unitary split keeps stages valid up to t0 ~ 0.539 here
    code, out = run_cli(capsys, "verify", "--fixture", "fokker-planck",
                        "--t", "0.5", "--t-grid", "1e-3,2,30")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["passed"] is True
    assert rep["matrix_residual"] < 1e-9
    assert rep["kernel_residual"] < 1e-6


def test_kernel_overflow_is_typed_error(capsys):
    # cos(tJQ) grows like e^{t/2} for the harmonic oscillator and overflows
    code, out = run_cli(capsys, "kernel", "--fixture", "harmonic", "--t", "1e6")
    assert code == EXIT_MATH
    assert json.loads(out)["kind"] == "DegenerateTime"


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_a_build_at_a_subnormal_time_is_typed_error(capsys, command):
    # at t = 1e-310 the polar factor's division by 4t overflows: the entry at
    # t fails as a typed error, before the Strang radius takes any SVD of it
    # and, cleaned, before the eigenvalues of A
    for fixture in ("heat", "kolmogorov"):
        code, rep = run_quietly(capsys, command, "--fixture", fixture, "--t", "1e-310")
        assert code == EXIT_MATH
        assert rep["kind"] == "DegenerateTime"
        assert rep["error"] == "[decompose.polar_factors] A is not finite at t = 1e-310"


@pytest.mark.parametrize("fixture", ["heat", "kolmogorov"])
def test_a_grid_point_below_float_reach_is_gamma_collapsed(capsys, fixture):
    # the first polar failure of the grid ends select_gamma
    code, rep = run_quietly(capsys, "decompose", "--fixture", fixture, "--t", "0.01",
                            "--t-grid", "1e-310,0.1,5")
    assert code == EXIT_MATH
    assert (rep["kind"], rep["error"]) == (
        "GammaCollapsed", "[decompose.select_gamma] polar factors failed at t = 1e-310: "
        "[decompose.polar_factors] A is not finite at t = 1e-310")


@pytest.mark.parametrize("scale", [1000, 3000, 10000])
def test_an_overflowing_flow_is_gamma_collapsed_without_a_warning(capsys, tmp_path, scale):
    # a strongly twisted real form: exp(-2itJQ) overflows on the grid, the
    # log fails those entries, and the steps after it run on them quietly
    twist = np.array([[0, 0.6, -0.3], [-0.6, 0, 0.4], [0.3, -0.4, 0]])
    Q = twisted_form_matrix(scale * twist)
    path = write_problem(tmp_path, {"n": 3, "Q_re": Q.tolist(),
                                    "Q_im": np.zeros_like(Q).tolist()})
    for argv in (["decompose", path], ["verify", path, "--t", "0.001"]):
        code, rep = run_quietly(capsys, *argv)
        assert code == EXIT_MATH and rep["kind"] == "GammaCollapsed"


@pytest.mark.parametrize("command", ["kernel", "evolve"])
@pytest.mark.parametrize("t, finite", [("1e-308", True), ("1e-310", False)])
def test_a_kernel_that_is_not_finite_is_typed_error(capsys, command, t, finite):
    # the kernel is of order 1/t: at 1e-310 it leaves the floats, and the
    # report would print "nan"
    code, out = run_cli(capsys, command, "--fixture", "heat", "--t", t)
    rep = json.loads(out)
    if finite:
        assert code == EXIT_OK
        assert not re.search(r'"-?(nan|inf)"', out)
        return
    assert code == EXIT_MATH
    assert rep["kind"] == "DegenerateTime"
    assert rep["error"] == f"[mehler.kernel_from_symbol] the kernel is not finite at t = {t}"


# --- times below float reach: a typed error, no traceback and no warning ------------------

@pytest.mark.parametrize("command, flags", [
    ("norms", ["--t", "1e-310"]), ("norms", ["--t", "1e-310", "--p", "2"]),
    ("exponents", ["--t-grid", "1e-310,1e-300,3"])])
def test_a_flow_kernel_below_float_reach_is_degenerate_time(capsys, command, flags):
    # heat is integrable at every t > 0: at 1e-310 its kernel, of order 1/t,
    # leaves the floats, which is not a singular B
    code, rep = run_quietly(capsys, command, "--fixture", "heat", *flags)
    assert code == EXIT_MATH
    assert rep["kind"] == "DegenerateTime"
    assert rep["error"] == "[mehler.flow_kernel] the kernel is not finite at t = 1e-310"
    # x^2 has B = 0 there too: no kernel
    code, rep = run_quietly(capsys, command, "--fixture", "x-squared", *flags)
    assert code == EXIT_MATH and rep["kind"] == "NonIntegrableSymbol"


@pytest.mark.parametrize("command, flags, t", [
    ("norms", ["--t", "1e13"], "1e+13"), ("norms", ["--t", "1e13", "--p", "2"], "1e+13"),
    ("exponents", ["--t-grid", "1e-3,1e14,10"], "1.29155e+12")])
def test_a_flow_kernel_past_the_cosine_rules_reach_is_degenerate_time(capsys, command, flags, t):
    # past t |JQ|_2 = 1e12 the cosine rule's floor, 1e-12 t |JQ|_2, reaches 1,
    # and no cosine can pass it: heat's B is not singular there
    code, rep = run_quietly(capsys, command, "--fixture", "heat", *flags)
    assert code == EXIT_MATH
    assert rep["kind"] == "DegenerateTime"
    assert rep["error"].startswith(f"[mehler.flow_kernel] B cannot be judged at t = {t}: "
                                   "t |JQ|_2 = ")
    # up to there heat passes, and x^2, whose B is 0, keeps its refusal
    code, rep = run_quietly(capsys, "norms", "--fixture", "heat", "--t", "1e11")
    assert code == EXIT_OK
    assert rep["norm"] == pytest.approx((4 * np.pi * 1e11) ** -0.5, rel=1e-12)
    code, rep = run_quietly(capsys, command, "--fixture", "x-squared", *flags)
    assert code == EXIT_MATH and rep["kind"] == "NonIntegrableSymbol"


@pytest.mark.parametrize("t", ["1e-305", "1e-300"])
def test_norms_near_float_reach_leak_no_warning(capsys, t):
    # the Frobenius bound of the cosine rule overflows; the SVDs decide
    code, rep = run_quietly(capsys, "norms", "--fixture", "heat", "--t", t)
    assert code == EXIT_OK
    assert rep["norm"] == pytest.approx((4 * np.pi * float(t)) ** -0.5, rel=1e-12)


def test_mehler_at_a_degenerate_time_is_typed_error(capsys):
    # Re B ~ 2e-310 has no finite inverse: the diagnostics would print "nan"
    code, rep = run_quietly(capsys, "mehler", "--fixture", "heat", "--t", "1e-310")
    assert code == EXIT_MATH
    assert (rep["kind"], rep["error"]) == (
        "DegenerateTime", "[mehler.diagnostics_PVMN] the diagnostics are not finite at "
        "t = 1e-310")
    code, rep = run_quietly(capsys, "mehler", "--fixture", "heat", "--t", "-0.5")
    assert code == EXIT_MATH
    assert (rep["kind"], rep["error"]) == ("DegenerateTime",
                                           "[mehler.mehler_symbol] t must be nonnegative")


def plant_in_kernel(monkeypatch, factor):
    """Multiply the K of verify's composed kernel by factor, after its last factor."""
    from qsemi import decompose
    phase = decompose.kernel_right_phase

    def planted(k, theta):
        k = phase(k, theta)
        return dataclasses.replace(k, K=k.K * factor)

    monkeypatch.setattr(decompose, "kernel_right_phase", planted)


@pytest.mark.parametrize("t", ["1e-2", "1e-200"])
def test_verify_kernel_gate_sees_a_planted_error(capsys, monkeypatch, t):
    # a 1e-3 relative error in every entry of K: below t ~ 1e-155 the target's
    # |K|_F overflows, and an unscaled relative distance read 0 there
    plant_in_kernel(monkeypatch, 1 + 1e-3)
    code, rep = run_quietly(capsys, "verify", "--fixture", "heat", "--t", t)
    assert code == EXIT_VERIFY
    assert rep["passed"] is False
    assert rep["kernel_residual"] == pytest.approx(1e-3, rel=1e-6)


def test_verify_kernel_gate_fails_a_nan(capsys, monkeypatch):
    plant_in_kernel(monkeypatch, np.nan)
    code, out = run_cli(capsys, "verify", "--fixture", "heat", "--t", "0.01")
    assert code == EXIT_VERIFY
    rep = json.loads(out)
    assert rep["passed"] is False and rep["kernel_residual"] == "nan"


def test_problem_file_roundtrip(tmp_path, capsys):
    Q = np.zeros((2, 2))
    Q[1, 1] = 1.0
    path = tmp_path / "heat.json"
    path.write_text(json.dumps({
        "n": 1,
        "Q_re": Q.tolist(),
        "Q_im": np.zeros((2, 2)).tolist(),
        "label": "heat",
    }))
    code, out = run_cli(capsys, "analyze", str(path))
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["k0"] == 0 and rep["S_dim"] == 1


def test_problem_file_rejects_asymmetric(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 1,
        "Q_re": [[0.0, 1.0], [0.0, 1.0]],
    }))
    code, out = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_PARSE
    assert json.loads(out)["kind"] == "ParseError"


def test_an_asymmetric_q_near_float_range_is_refused_with_no_warning(tmp_path, capsys):
    # Q - Q^T and |Q|_F are taken on Q / 2^e: unscaled, both overflowed, and
    # the rule read inf > 1e-9 inf as symmetric
    path = write_problem(tmp_path, {"n": 1, "Q_re": [[1, 1.7e308], [-1.7e308, 1]]})
    code, rep = run_quietly(capsys, "analyze", path)
    assert code == EXIT_PARSE and rep["kind"] == "ParseError"
    assert rep["error"] == "[cli.load_problem] Q is not symmetric within 1e-9"


def test_problem_file_rejects_nonaccretive(tmp_path, capsys):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({
        "n": 1,
        "Q_re": [[-1.0, 0.0], [0.0, 0.0]],
    }))
    code, out = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_PARSE


@pytest.mark.parametrize("c", [2.0 ** -60, 2.0 ** -20, 1.0, 2.0 ** 20])
def test_a_multiple_of_a_non_accretive_form_is_refused_at_every_scale(tmp_path, capsys, c):
    # the floor -tol |Q|_F scales with Q: -tol max(1, |Q|_F) let 2^-60 diag(-1, 1) in
    path = write_problem(tmp_path, {"n": 1, "Q_re": [[-c, 0.0], [0.0, c]]})
    code, rep = run_quietly(capsys, "analyze", path)
    assert code == EXIT_PARSE and "Re Q must be positive semidefinite" in rep["error"]


def test_the_zero_form_parses(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 1, "Q_re": [[0.0, 0.0], [0.0, 0.0]]})
    code, rep = run_quietly(capsys, "analyze", path)
    assert code == EXIT_OK and rep["S_dim"] == 2


@pytest.mark.parametrize("command, kind, message", [
    ("norms", "DegenerateTime", "B cannot be judged"),
    ("exponents", "DegenerateTime", "B cannot be judged"),
    ("decompose", "GammaCollapsed", "after 64 square roots"),
    ("verify", "GammaCollapsed", "after 64 square roots")])
def test_heat_scaled_by_1e300_is_refused_with_no_warning(tmp_path, capsys, command, kind,
                                                         message):
    # |tJQ|_F is taken with no overflow in the cosine rule; and the polar
    # factors' log, whose nilpotent part only halves with each root, fails
    # after 64 roots where searchsorted ran off the thetas (IndexError)
    path = write_problem(tmp_path, {"n": 1, "Q_re": [[0.0, 0.0], [0.0, 1e300]]})
    code, rep = run_quietly(capsys, command, path)
    assert code == EXIT_MATH and rep["kind"] == kind and message in rep["error"]


@pytest.mark.parametrize("lam_min, tol, code", [
    (-1e-10, "1e-12", EXIT_PARSE), (-1e-10, "1e-3", EXIT_OK), (-1e-10, None, EXIT_OK),
    (-1e-6, "1e-12", EXIT_PARSE), (-1e-6, "1e-3", EXIT_OK), (-1e-6, None, EXIT_PARSE)])
def test_positivity_of_re_q_is_judged_at_the_runs_tolerance(tmp_path, capsys, monkeypatch,
                                                           lam_min, tol, code):
    # one decision, QuadraticForm's at tol |Q|; a failure is a parse error
    monkeypatch.delenv("QSEMI_TOL", raising=False)
    path = tmp_path / "slightly_negative.json"
    path.write_text(json.dumps({"n": 1, "Q_re": [[lam_min, 0.0], [0.0, 1.0]]}))
    got, out = run_cli(capsys, "analyze", str(path), *(["--tol", tol] if tol else []))
    assert got == code
    if code == EXIT_PARSE:
        assert json.loads(out)["kind"] == "ParseError"
        assert f"lambda_min = {lam_min:.3e}" in json.loads(out)["error"]


@pytest.mark.parametrize("re00", [-1e150, -1e160, -1e300])
def test_a_far_from_positive_re_q_with_large_entries_is_refused(tmp_path, capsys, re00):
    # QuadraticForm's scale |Q|_F is taken with no overflow: past entries of
    # 1e154 it was inf, and so was its tolerance on lambda_min(Re Q)
    path = write_problem(tmp_path, {"n": 1, "Q_re": [[re00, 0.0], [0.0, 1.0]]})
    code, rep = run_quietly(capsys, "analyze", path)
    assert code == EXIT_PARSE and rep["kind"] == "ParseError"
    assert "Re Q must be positive semidefinite" in rep["error"]


def test_a_large_im_q_widens_the_positivity_tolerance_with_no_warning(tmp_path, capsys):
    # lambda_min(Re Q) = -1e200 lies within the tolerance 1e-9 |Q|_F ~ 1.4e291
    path = write_problem(tmp_path, {"n": 1, "Q_re": [[-1e200, 0.0], [0.0, 1.0]],
                                    "Q_im": [[0.0, 1e300], [1e300, 0.0]]})
    code, rep = run_quietly(capsys, "analyze", path)
    assert code == EXIT_OK and rep["S_dim"] == 1


def test_a_symmetric_q_with_an_entry_near_float_range_is_analyzed_with_no_warning(
        tmp_path, capsys):
    # Q is symmetrized, and Re Q's positivity judged, as Q/2 + Q^T/2: the
    # sum Q + Q^T overflowed to inf and psd_check refused it as NonSquare
    path = write_problem(tmp_path, {"n": 1, "Q_re": [[1.7e308, 0.0], [0.0, 1.0]]})
    code, rep = run_quietly(capsys, "analyze", path)
    assert code == EXIT_OK
    assert rep["S_dim"] == 1 and rep["graph"] is None


def test_missing_input_is_parse_error(capsys):
    code, out = run_cli(capsys, "analyze")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("content, message", [
    (None, "cannot read problem file"), ("[1, 2]", "problem file must hold a JSON object")])
def test_a_missing_or_non_object_problem_file_is_parse_error(tmp_path, capsys, content,
                                                             message):
    path = tmp_path / "problem.json"
    if content is not None:
        path.write_text(content)
    code, rep = run_quietly(capsys, "analyze", str(path))
    assert code == EXIT_PARSE and rep["kind"] == "ParseError"
    assert (rep["module"], rep["operation"]) == ("cli", "load_problem")
    assert message in rep["error"]


def test_a_non_numeric_exponent_is_parse_error(capsys):
    code, rep = run_quietly(capsys, "norms", "--fixture", "heat", "--p", "abc")
    assert code == EXIT_PARSE and rep["kind"] == "ParseError"
    assert (rep["module"], rep["operation"]) == ("cli", "parse_exponent")


def test_exponents_heat_tight(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out = run_cli(capsys, "exponents", "--fixture", "heat",
                        "--p", "1", "--q", "inf",
                        "--t-grid", "0.001,0.1,10", "--out", str(csv_path))
    rep = json.loads(out)
    assert code == EXIT_OK
    assert abs(rep["fitted_slope"] + 0.5) < 0.01
    assert abs(rep["cpq_bound"] - 0.5) < 1e-12
    assert rep["verdict"] == "tight"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 11


def test_exponents_degenerate_grid_is_math_error(capsys):
    # three equal times carry no slope; polyfit would fit one anyway
    code, out = run_cli(capsys, "exponents", "--fixture", "heat",
                        "--t-grid", "0.1,0.1,3")
    assert code == EXIT_MATH
    assert json.loads(out)["kind"] == "NonPositiveSample"


def test_norms_exact_1_inf(capsys):
    code, out = run_cli(capsys, "norms", "--fixture", "heat", "--t", "0.37",
                        "--p", "1", "--q", "inf")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert abs(rep["norm"] - (4 * np.pi * 0.37) ** -0.5) < 1e-12
    assert rep["method"] == "exact sup |g|"


@pytest.mark.parametrize("p, q, method", [
    ("2", "inf", "exact sup_x |g(x, .)|_p'"), ("inf", "inf", "exact sup_x |g(x, .)|_p'"),
    ("1", "2", "exact sup_y |g(., y)|_q"), ("2", "2", "gaussian lower bound")])
def test_norms_method_names_the_closed_form(capsys, p, q, method):
    code, out = run_cli(capsys, "norms", "--fixture", "heat", "--t", "0.37",
                        "--p", p, "--q", q)
    assert code == EXIT_OK
    assert json.loads(out)["method"] == method


@pytest.mark.parametrize("p, q, exact", [("1", "inf", True), ("2", "inf", True),
                                         ("1", "2", True), ("2", "4", False)])
def test_exponents_report_says_whether_exact(capsys, p, q, exact):
    code, out = run_cli(capsys, "exponents", "--fixture", "heat", "--p", p, "--q", q,
                        "--t-grid", "1e-3,1e-1,5")
    assert code == EXIT_OK
    assert json.loads(out)["exact"] is exact


def test_mehler_report(capsys):
    code, out = run_cli(capsys, "mehler", "--fixture", "harmonic", "--t", "1.0")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert abs(rep["c"]["re"] - 1 / np.cosh(0.5)) < 1e-10
    assert rep["diagnostics"] is not None


def test_mehler_without_a_graph_reports_no_diagnostics(capsys):
    # x^2's symbol has no P, V, M, N splitting: the report says so, exit 0
    code, rep = run_quietly(capsys, "mehler", "--fixture", "x-squared")
    assert code == EXIT_OK and rep["diagnostics"] is None


def test_evolve_x_squared_demo(capsys):
    code, out = run_cli(capsys, "evolve", "--fixture", "x-squared", "--t", "0.1")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["jump_preserved"] is True
    assert rep["kernel_error"] == "NonIntegrableSymbol"


@pytest.mark.parametrize("c", [2.0 ** -30, 1.0, 2.0 ** 30])
def test_the_jump_demo_commutes_with_a_multiple_of_the_form(tmp_path, capsys, c):
    # an xi-row entry of 5e-10 c is below tol max |Q_ij| = 1e-9 c at every c;
    # against the absolute 1e-9, c = 2^30 was refused as DimensionMismatch
    path = write_problem(tmp_path, {"n": 1, "Q_re": [[c, 0.0], [0.0, 0.0]],
                                    "Q_im": [[0.0, 5e-10 * c], [5e-10 * c, 0.0]]})
    code, rep = run_quietly(capsys, "evolve", path, "--t", repr(0.1 / c))
    assert code == EXIT_OK
    assert rep == {"t": 0.1 / c, "jump_before": 1.0, "jump_after": 1.0,
                   "jump_preserved": True, "kernel_error": "NonIntegrableSymbol"}


def test_a_fixture_is_loaded_at_the_runs_tolerance():
    # every stage reads the tolerance from the form: a fixture kept 1e-9
    assert cli.load_problem("kolmogorov", {}, 1e-7).tol == 1e-7


def test_evolve_demo_on_a_problem_file_without_graph(tmp_path, capsys):
    # the demo is chosen by the failed graph condition, not the fixture name
    path = tmp_path / "x2.json"
    path.write_text(json.dumps({"n": 1, "Q_re": [[1, 0], [0, 0]]}))
    code, out = run_cli(capsys, "evolve", str(path), "--t", "0.1")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["jump_preserved"] is True


def test_evolve_demo_keeps_the_jump_in_closed_form(tmp_path, capsys):
    # exp(-t q(x, 0)) is continuous and 1 at x = 0, for any complex q(x, 0) with
    # Re >= 0: the jump of H(x) exp(-x^2) there stays 1
    rng = np.random.default_rng(17)
    q_xx = [0.0, 1j, *(rng.uniform(0, 5, 6) + 1j * rng.uniform(-5, 5, 6))]
    for z in q_xx:
        path = write_problem(tmp_path, {"n": 1, "Q_re": [[z.real, 0.0], [0.0, 0.0]],
                                        "Q_im": [[z.imag, 0.0], [0.0, 0.0]]})
        for t in ("1e-3", "0.1", "1", "3"):
            code, out = run_cli(capsys, "evolve", path, "--t", t)
            rep = json.loads(out)
            assert code == EXIT_OK, (z, t, rep)
            assert (rep["jump_before"], rep["jump_after"], rep["jump_preserved"]) == (
                1.0, 1.0, True)


def test_evolve_gaussian_report(capsys):
    code, out = run_cli(capsys, "evolve", "--fixture", "heat", "--t", "0.2")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["norms"]["L1"] > 0


def test_decompose_report(capsys):
    code, out = run_cli(capsys, "decompose", "--fixture", "heat", "--t", "0.05")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert abs(rep["gamma"] - 0.09) < 1e-9
    assert rep["alpha"] == 1


def test_qsemi_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QSEMI_TOL", "1e-7")
    code, out = run_cli(capsys, "analyze", "--fixture", "heat")
    assert code == EXIT_OK


def test_canonical_float_formatting():
    s = dumps_canonical({"a": 0.1, "b": 1.0, "c": [1, 2.5]})
    assert "0.10000000000000001" in s
    assert '"a"' in s and s.index('"a"') < s.index('"b"')


def test_canonical_json_is_parseable():
    s = dumps_canonical({"x": float("inf"), "y": complex(1, -2),
                         "z": np.arange(3).astype(float)})
    rep = json.loads(s)
    assert rep["x"] == "inf"
    assert rep["y"] == {"im": -2.0, "re": 1.0}


def recursive_dumps(obj, indent=0):
    """dumps_canonical as it wrote every list entry, floats included, by a
    recursive call on the entry."""
    pad, pad1 = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad1}{json.dumps(str(k))}: {recursive_dumps(v, indent + 1)}"
                 for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [recursive_dumps(v, indent + 1) for v in obj]
        if sum(len(s) for s in items) < 72 and all("\n" not in s for s in items):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad1 + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x:
            return '"nan"'
        if x in (float("inf"), float("-inf")):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".1f" if x == int(x) and abs(x) < 1e16 else ".17g")
    if isinstance(obj, (complex, np.complexfloating)):
        return recursive_dumps({"im": float(obj.imag), "re": float(obj.real)}, indent)
    if isinstance(obj, np.ndarray):
        return recursive_dumps(obj.tolist(), indent)
    return json.dumps(obj)


def test_canonical_lists_match_the_recursive_writer():
    # Python floats are formatted in place; bools, ints, numpy scalars, None,
    # strings, complex numbers and nested lists still recurse
    floats = [0.0, -0.0, 1.0, -3.0, 0.1, 1 / 3, 1e16, 1e16 - 2, -1e300, 5e-324,
              float("nan"), float("inf"), float("-inf"), 2.0 ** 53 + 2]
    cases = [
        floats,
        [True, False, 1.0, 0.0, True],
        [1, 2.5, np.float64(0.1), np.float64(-0.0), np.int64(7), np.float32(0.25)],
        [None, "a", 1.0, complex(1, -2), np.complex128(-0.0 + 3j)],
        [[0.5, 1.0], [True, [2.0, float("nan")]], []],
        (1.0, -0.0, np.float64("inf")),
        {"t_values": floats, "norms": [x * 2 for x in floats], "exact": True,
         "K": np.array([[1.0, -0.0], [2.5, 3.0]])},
        list(map(float, np.logspace(-4, -1, 40))),
    ]
    for obj in cases:
        assert dumps_canonical(obj) == recursive_dumps(obj), obj
    assert dumps_canonical([True, 1.0, False]) == "[true, 1.0, false]"


def test_problem_matrices_parse_and_fail_as_one_entry_at_a_time():
    def reference(value, name, m):
        entries = np.asarray(value, dtype=object).ravel().tolist()
        return np.array([cli._number(v, f"an entry of {name}") for v in entries],
                        dtype=float).reshape(m, m)

    values = [[[1, 2.5], [-3, 1e300]], [[0, 2 ** 70], [3, 4]], [[1.0, True], [0, 1]],
              [[1.0, "1"], [0, 1]], [[1.0, None], [0, 1]], [[1.0, 2.0], [3.0]],
              [[1.0, 2.0, 3.0]], 5, "abc", {}, [[[1.0]]], [[10 ** 400, 0], [0, 1]],
              [[1.0, [2.0]], [3.0, 4.0]], [[float("nan"), 0], [0, 1]]]
    for value in values:
        for m in (1, 2):
            try:
                want = reference(value, "Q_re", m)
            except (OverflowError, TypeError, ValueError) as exc:
                with pytest.raises(type(exc)) as info:
                    cli._matrix(value, "Q_re", (m, m))
                assert str(info.value) == str(exc), value
            else:
                got = cli._matrix(value, "Q_re", (m, m))
                assert got.dtype == float and np.array_equal(got, want, equal_nan=True)


# --- (2, inf) sweeps ------------------------------------------------------------

def test_exponents_heat_2_inf_tight(capsys):
    code, out = run_cli(capsys, "exponents", "--fixture", "heat", "--p", "2", "--q", "inf")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert abs(rep["cpq_bound"] - 0.25) < 1e-12
    assert abs(rep["fitted_slope"] + 0.25) < 0.02
    assert rep["verdict"] == "tight"


def test_exponents_kolmogorov_2_inf_respected(capsys):
    code, out = run_cli(capsys, "exponents", "--fixture", "kolmogorov",
                        "--p", "2", "--q", "inf")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["k0"] == 1
    assert rep["verdict"] == "respected"
    assert abs(rep["fitted_slope"] + 1.0) <= 0.01


# --- problem-file and t-grid parsing -------------------------------------------------

HEAT_PROBLEM = {"n": 1, "Q_re": [[0.0, 0.0], [0.0, 1.0]]}


def write_problem(tmp_path, problem):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return str(path)


@pytest.mark.parametrize("grid", ["0.1,a,3", "0.1", "0.1,1", "1e-3,1e-1,0",
                                  "1e-3,1e-1,-2", "0,1e-1,5", "-1e-3,1e-1,5,log",
                                  "1e-3,nan,5", "1e-3,1e-1,2.5", "1e-3,0.1,3,banana",
                                  "1e-3,0.1,3,", "1e-3,0.1,3,yes", "1e-3,0.1,3,log,lin"])
def test_t_grid_flag_parse_errors(capsys, grid):
    code, out = run_cli(capsys, "exponents", "--fixture", "heat", f"--t-grid={grid}")
    assert code == EXIT_PARSE
    assert json.loads(out)["kind"] == "ParseError"


@pytest.mark.parametrize("t_grid", [{"t_min": 1e-3, "points": 5},
                                    {"t_max": 1e-1, "points": 5},
                                    {"t_min": 1e-3, "t_max": 1e-1},
                                    {"t_min": 1e-3, "t_max": 1e-1, "points": 0},
                                    {"t_min": 0.0, "t_max": 1e-1, "points": 5},
                                    {"t_min": "x", "t_max": 1e-1, "points": 5},
                                    [1e-3, 1e-1, 5],
                                    {"t_min": 1e-3, "t_max": 1e-1, "points": 3.9},
                                    {"t_min": 1e-3, "t_max": 1e-1, "points": 3.0},
                                    {"t_min": 1e-3, "t_max": 1e-1, "points": True},
                                    {"t_min": 1e-3, "t_max": 1e-1, "points": "3"},
                                    *({"t_min": 1e-3, "t_max": 1e-1, "points": 3,
                                       "log_spaced": spacing}
                                      for spacing in ("false", "log", 0, 1, None))])
def test_t_grid_file_parse_errors(tmp_path, capsys, t_grid):
    path = write_problem(tmp_path, dict(HEAT_PROBLEM, t_grid=t_grid))
    code, out = run_cli(capsys, "exponents", path)
    assert code == EXIT_PARSE
    assert json.loads(out)["kind"] == "ParseError"


@pytest.mark.parametrize("spacing, log", [(None, True), ("log", True), ("LOG", True),
                                          (" Log ", True), ("true", True), ("True", True),
                                          ("1", True), ("lin", False), ("LIN", False),
                                          ("Lin", False), ("false", False), ("FALSE", False),
                                          ("0", False)])
def test_t_grid_flag_spacing(capsys, spacing, log):
    grid = "1e-3,0.1,3" if spacing is None else f"1e-3,0.1,3,{spacing}"
    code, out = run_cli(capsys, "exponents", "--fixture", "heat", f"--t-grid={grid}")
    assert code == EXIT_OK
    assert json.loads(out)["t_values"][1] == pytest.approx(0.01 if log else 0.0505)


@pytest.mark.parametrize("spacing, log", [(None, True), (True, True), (False, False)])
def test_t_grid_file_spacing(tmp_path, capsys, spacing, log):
    t_grid = {"t_min": 1e-3, "t_max": 1e-1, "points": 3}
    if spacing is not None:
        t_grid["log_spaced"] = spacing
    code, out = run_cli(capsys, "exponents", write_problem(tmp_path, dict(HEAT_PROBLEM,
                                                                         t_grid=t_grid)))
    assert code == EXIT_OK
    assert json.loads(out)["t_values"][1] == pytest.approx(0.01 if log else 0.0505)


@pytest.mark.parametrize("command", ["exponents", "decompose", "verify"])
def test_linear_t_grid_with_zero_is_parse_error(tmp_path, capsys, command):
    # t = 0 has neither a kernel nor a factorization, in any spacing
    path = write_problem(tmp_path, dict(HEAT_PROBLEM, t_grid={
        "t_min": 0.0, "t_max": 1e-1, "points": 5, "log_spaced": False}))
    t_flag = [] if command == "exponents" else ["--t", "0.01"]
    code, out = run_cli(capsys, command, path, *t_flag)
    assert code == EXIT_PARSE
    assert json.loads(out)["kind"] == "ParseError"
    code, out = run_cli(capsys, command, "--fixture", "heat", *t_flag,
                        "--t-grid", "0,0.05,3,lin")
    assert code == EXIT_PARSE
    assert json.loads(out)["kind"] == "ParseError"


def test_descending_t_grid_sets_the_same_horizon(capsys):
    outs = [run_cli(capsys, "decompose", "--fixture", "heat", "--t", "0.01", "--t-grid", grid)
            for grid in ("0.001,0.1,20", "0.1,0.001,20")]
    assert outs[0][0] == outs[1][0] == EXIT_OK
    assert outs[0][1] == outs[1][1]
    assert json.loads(outs[0][1])["t0"] == 0.1


@pytest.mark.parametrize("change", [{"tolerances": {"default": "x"}},
                                    {"tolerances": {"default": -1.0}},
                                    {"tolerances": "x"},
                                    {"n": 0}, {"n": -1}, {"n": "one"},
                                    {"Q_re": [[float("nan"), 0.0], [0.0, 1.0]]},
                                    {"Q_im": [[0.0, float("inf")], [float("inf"), 0.0]]},
                                    {"Q_im": [[0.0, 1.0]]},
                                    {"n": 1.5}, {"n": 1.0}, {"n": True}, {"n": "1"}])
def test_problem_file_parse_errors(tmp_path, capsys, change):
    path = write_problem(tmp_path, dict(HEAT_PROBLEM, **change))
    code, out = run_cli(capsys, "exponents", path)
    assert code == EXIT_PARSE
    assert json.loads(out)["kind"] == "ParseError"


@pytest.mark.parametrize("change, named", [
    ({"Q_re": [[0.0, 0.0], [0.0, True]]}, "True"),
    ({"Q_re": [[0.0, 0.0], [0.0, "1"]]}, "'1'"),
    ({"Q_im": [[False, 0.0], [0.0, 0.0]]}, "False"),
    ({"Q_im": [[0.0, "0.5"], ["0.5", 0.0]]}, "'0.5'"),
    ({"t_grid": {"t_min": True, "t_max": 0.1, "points": 3}}, "t_min = True"),
    ({"t_grid": {"t_min": 1e-3, "t_max": "0.1", "points": 3}}, "t_max = '0.1'"),
    ({"tolerances": {"default": "1e-3"}}, "tolerances.default = '1e-3'"),
    ({"tolerances": {"default": True}}, "tolerances.default = True")])
def test_problem_file_numbers_must_be_json_numbers(tmp_path, capsys, change, named):
    # a JSON boolean or numeric string is not read as the number it spells
    code, out = run_cli(capsys, "exponents", write_problem(tmp_path, dict(HEAT_PROBLEM,
                                                                         **change)))
    rep = json.loads(out)
    assert code == EXIT_PARSE
    assert rep["kind"] == "ParseError"
    assert named in rep["error"]


TIME_COMMANDS = [name for name, (_, options) in cli._COMMANDS.items() if "--t" in options]


@pytest.mark.parametrize("command", TIME_COMMANDS)
@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "NaN"])
def test_a_time_that_is_not_finite_is_parse_error(capsys, command, t):
    # decided once, by the command line, before any pipeline
    fixture = "x-squared" if command == "evolve" else "heat"
    code, out = run_cli(capsys, command, "--fixture", fixture, f"--t={t}")
    rep = json.loads(out)
    assert code == EXIT_PARSE
    assert (rep["kind"], rep["module"], rep["operation"]) == ("ParseError", "cli",
                                                              "parse_args")
    assert f"argument --t: {t!r} is not a finite number" in rep["error"]


def test_problem_file_parsed_once(tmp_path, capsys, monkeypatch):
    path = write_problem(tmp_path, dict(HEAT_PROBLEM, t_grid={
        "t_min": 1e-3, "t_max": 1e-1, "points": 5}))
    loads = []
    real_load = cli.json.load
    monkeypatch.setattr(cli.json, "load", lambda fh: loads.append(1) or real_load(fh))
    code, out = run_cli(capsys, "exponents", path)
    assert code == EXIT_OK
    assert len(json.loads(out)["t_values"]) == 5
    assert len(loads) == 1


# --- random malformed input: a typed exit code, never a traceback --------------------

grid_field = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True),
                       st.integers(-3, 60), st.text(max_size=3))
grid_flag = st.lists(grid_field, min_size=0, max_size=5).map(
    lambda fields: ",".join(map(str, fields)))
junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                 st.text(max_size=3), st.lists(st.floats(-2, 2), max_size=5))
# sizes stay small: a grid of 10^9 points is valid input, just a costly one
small_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 60),
                       st.floats(-3, 60), st.text(max_size=2))
problem_key = st.sampled_from(["n", "Q_re", "Q_im", "tolerances", "t_grid"])
problem_change = st.dictionaries(problem_key, st.one_of(
    junk, st.fixed_dictionaries({"default": junk}),
    st.fixed_dictionaries({"t_min": junk, "t_max": junk, "points": small_junk}),
    st.fixed_dictionaries({"t_min": st.floats(1e-4, 1.0), "t_max": st.floats(1e-4, 1.0),
                           "points": st.integers(-2, 12), "log_spaced": st.booleans()}),
    st.just([[0.0, 0.0], [0.0, 1.0]]), st.just([[0.0, 0.5], [0.5, 0.0]])), max_size=3)


@settings(max_examples=40, deadline=None)
@given(grid=grid_flag, p=st.sampled_from(["1", "2"]))
def test_random_t_grid_flags_exit_typed(grid, p):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["exponents", "--fixture", "heat", "--p", p, f"--t-grid={grid}"])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_MATH, EXIT_VERIFY)


@settings(max_examples=40, deadline=None)
@given(change=problem_change, drop=st.sets(problem_key, max_size=2),
       p=st.sampled_from(["1", "2"]))
def test_random_problem_files_exit_typed(tmp_path_factory, change, drop, p):
    problem = {k: v for k, v in dict(HEAT_PROBLEM, **change).items() if k not in drop}
    path = tmp_path_factory.mktemp("problem") / "problem.json"
    path.write_text(json.dumps(problem))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["exponents", str(path), "--p", p])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_MATH, EXIT_VERIFY)


# --- the tolerance: --tol, then tolerances.default, then QSEMI_TOL, then 1e-9 --------

# singular value 1e-6 of Re Q: a null direction at tolerance 1e-3, none at 1e-9
TINY_PROBLEM = {"n": 1, "Q_re": [[1e-6, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("file_tol, flag, env, dim", [
    (None, None, None, 0), (1e-3, None, None, 1), (None, "1e-3", None, 1),
    (None, None, "1e-3", 1), (1e-3, "1e-9", None, 0), (1e-9, None, "1e-3", 0),
    (1e-3, None, "1e-9", 1)])
def test_tolerance_resolution_order(tmp_path, capsys, monkeypatch, file_tol, flag, env, dim):
    problem = dict(TINY_PROBLEM)
    if file_tol is not None:
        problem["tolerances"] = {"default": file_tol}
    if env is None:
        monkeypatch.delenv("QSEMI_TOL", raising=False)
    else:
        monkeypatch.setenv("QSEMI_TOL", env)
    argv = ["analyze", write_problem(tmp_path, problem)] + (["--tol", flag] if flag else [])
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["S_dim"] == dim


@pytest.mark.parametrize("flag, env", [(None, "abc"), (None, ""), (None, "-1e-3"),
                                       (None, "inf"), ("-1", None), ("0", None),
                                       ("nan", None), ("-1", "1e-9"), ("1", None),
                                       ("1e300", None), (None, "2")])
def test_invalid_tolerance_is_parse_error(capsys, monkeypatch, flag, env):
    if env is None:
        monkeypatch.delenv("QSEMI_TOL", raising=False)
    else:
        monkeypatch.setenv("QSEMI_TOL", env)
    argv = ["analyze", "--fixture", "heat"] + ([f"--tol={flag}"] if flag else [])
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert json.loads(out)["kind"] == "ParseError"


def test_file_tolerance_beats_an_invalid_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QSEMI_TOL", "abc")
    path = write_problem(tmp_path, dict(TINY_PROBLEM, tolerances={"default": 1e-3}))
    code, out = run_cli(capsys, "analyze", path)
    assert code == EXIT_OK
    assert json.loads(out)["S_dim"] == 1


def test_norm_sweep_passes_its_tolerance_to_the_sup_norm(capsys, monkeypatch):
    from qsemi import evolve
    seen = []
    real = evolve.op_norm_1_inf
    monkeypatch.setattr(evolve, "op_norm_1_inf",
                        lambda k, *, tol: seen.append(tol) or real(k, tol=tol))
    code, _ = run_cli(capsys, "norms", "--fixture", "heat", "--tol", "1e-5")
    assert code == EXIT_OK
    assert seen == [1e-5]


# --- evolve --input: a parse error or a math error, never a traceback -----------------

GOOD_STATE = {"A_re": [[1.0]], "A_im": [[0.5]], "b_re": [0.1], "c_re": 2.0}


def write_state(tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    return str(path)


def test_evolve_input_state(tmp_path, capsys):
    path = write_state(tmp_path, json.dumps(GOOD_STATE))
    code, out = run_cli(capsys, "evolve", "--fixture", "heat", "--t", "0.2", "--input", path)
    assert code == EXIT_OK
    assert json.loads(out)["norms"]["L1"] > 0


@pytest.mark.parametrize("text", [
    None, "{", "[1.0]", "{}", json.dumps({"A_im": [[1.0]]}),
    json.dumps(dict(GOOD_STATE, A_re=[[1.0, 0.0]])),
    json.dumps(dict(GOOD_STATE, b_re=[0.0, 1.0])),
    json.dumps(dict(GOOD_STATE, A_re=[["a"]])),
    json.dumps(dict(GOOD_STATE, A_re=[[None]])),
    json.dumps(dict(GOOD_STATE, c_re="two")),
    json.dumps(dict(GOOD_STATE, c_im=[1.0])),
    json.dumps(dict(GOOD_STATE, A_re=[[float("nan")]])),
    json.dumps(dict(GOOD_STATE, b_im=[float("inf")])),
    json.dumps(dict(GOOD_STATE, c_re=1e400)),
    json.dumps(dict(GOOD_STATE, c_re="2")),
    json.dumps(dict(GOOD_STATE, c_re=True)),
    json.dumps(dict(GOOD_STATE, A_re="1")),
    json.dumps(dict(GOOD_STATE, b_re=["0.5"]))])
def test_evolve_bad_input_is_parse_error(tmp_path, capsys, text):
    path = str(tmp_path / "missing.json") if text is None else write_state(tmp_path, text)
    code, out = run_cli(capsys, "evolve", "--fixture", "heat", "--input", path)
    assert code == EXIT_PARSE
    assert json.loads(out)["kind"] == "ParseError"


def test_evolve_demo_rejects_an_input_state(tmp_path, capsys):
    # the jump demo evolves no Gaussian state: a malformed one is still an error
    path = write_state(tmp_path, "{")
    code, out = run_cli(capsys, "evolve", "--fixture", "x-squared", "--input", path)
    rep = json.loads(out)
    assert code == EXIT_PARSE
    assert rep["kind"] == "ParseError" and "--input" in rep["error"]


def test_evolve_nonintegrable_input_is_math_error(tmp_path, capsys):
    path = write_state(tmp_path, json.dumps(dict(GOOD_STATE, A_re=[[-1.0]])))
    code, out = run_cli(capsys, "evolve", "--fixture", "heat", "--input", path)
    assert code == EXIT_MATH
    assert json.loads(out)["kind"] == "NonIntegrable"


# --- the error that ended the t0 horizon is named --------------------------------------

@pytest.mark.parametrize("t, grid, kind, prefix", [
    ("1", "1,2,5", "GammaCollapsed", "no grid point passes the validity predicates: "),
    ("0.7", "0.6,2,5", "TimeTooLarge", "beyond the validity horizon t0 = 0.6: ")])
def test_horizon_errors_name_the_stop_reason(capsys, t, grid, kind, prefix):
    code, out = run_cli(capsys, "decompose", "--fixture", "fokker-planck",
                        "--t", t, "--t-grid", grid)
    rep = json.loads(out)
    assert code == EXIT_MATH
    assert rep["kind"] == kind
    assert re.search(re.escape(prefix) + r"RadiusExceeded: \[decompose\.strang_middle\] "
                     r"\|A\| = \S+, \|B\| = \S+ must be below log\(2\)/6 = 0\.1155$",
                     rep["error"]), rep["error"]


def test_time_too_large_ends_with_the_stop_reason(capsys):
    from qsemi import get_fixture, graph_condition, select_gamma, singular_space
    q = get_fixture("fokker-planck")
    report = singular_space(q)
    sel = select_gamma(q, report, graph_condition(report), np.logspace(np.log10(0.6), 0, 3))
    assert sel.t0 == 0.6 and sel.stop_reason.startswith("RadiusExceeded")
    code, out = run_cli(capsys, "decompose", "--fixture", "fokker-planck",
                        "--t", "0.7", "--t-grid", "0.6,1,3")
    assert code == EXIT_MATH
    assert json.loads(out)["error"].endswith(f"t0 = 0.6: {sel.stop_reason}")


# --- the command line: each command takes only the options it reads --------------------

READS = {"analyze": [], "mehler": ["--t"], "kernel": ["--t"],
         "decompose": ["--t", "--t-grid"], "verify": ["--t", "--t-grid"],
         "evolve": ["--t", "--input"],
         "norms": ["--t", "--p", "--q"], "exponents": ["--t-grid", "--p", "--q", "--out"]}
OPTION_VALUES = {"--t": "0.05", "--t-grid": "1e-3,1e-1,5", "--input": "state.json",
                 "--p": "2", "--q": "inf", "--out": "sweep.csv"}
#: the options and values tried on each command: also the jump demo's grid options,
#: which the CLI no longer has, so that every command rejects them
TRIED = {**OPTION_VALUES, "--grid-points": "65", "--domain": "4"}


@pytest.mark.parametrize("command, option", [(c, o) for c in READS for o in TRIED
                                             if o not in READS[c]])
def test_command_rejects_options_it_does_not_read(tmp_path, capsys, command, option):
    path = write_problem(tmp_path, HEAT_PROBLEM)
    # after --fixture, too, where the option's value would fill the problem-file slot
    for source in ([path], ["--fixture", "heat"]):
        for value in (TRIED[option], "-0.5"):
            code, out = run_cli(capsys, command, *source, option, value)
            rep = json.loads(out)
            assert code == EXIT_PARSE
            assert (rep["kind"], rep["operation"]) == ("ParseError", "parse_args")
            assert rep["error"].endswith(f"unrecognized arguments: {option} {value}")


def test_rejected_options_are_neither_listed_nor_read(tmp_path, capsys):
    # analyze reads no t grid, so the file's malformed one is never parsed
    path = write_problem(tmp_path, {**HEAT_PROBLEM, "t_grid": "junk"})
    assert run_cli(capsys, "analyze", path)[0] == EXIT_OK
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--fixture",
                                                                    "--tol"}


@pytest.mark.parametrize("source", [["--fixture", "heat"], ["problem"],
                                    ["--fixture", "x-squared"]])
@pytest.mark.parametrize("unknown", [["--foo", "0.5"], ["--foo=0.5"], ["--foo", "-0.5"],
                                     ["--grid-points", "95", "--domain", "6"]])
def test_unknown_option_is_named_with_its_value(tmp_path, capsys, source, unknown):
    # after --fixture the value would otherwise fill the problem-file slot; evolve
    # runs the jump demo on x-squared and the Gaussian path on the heat problem
    source = [write_problem(tmp_path, HEAT_PROBLEM) if s == "problem" else s for s in source]
    for command in ("analyze", "evolve"):
        for argv in (source + unknown, unknown + source):
            code, out = run_cli(capsys, command, *argv)
            rep = json.loads(out)
            assert code == EXIT_PARSE
            assert rep["error"].endswith(f"unrecognized arguments: {' '.join(unknown)}")


@pytest.mark.parametrize("command, flag", [("analyze", "--t"), ("exponents", "--t"),
                                           ("verify", "--to"), ("decompose", "--to")])
def test_no_prefix_is_read_as_tol(tmp_path, capsys, command, flag):
    path = write_problem(tmp_path, HEAT_PROBLEM)
    code, out = run_cli(capsys, command, path, flag, "0.5")
    assert code == EXIT_PARSE
    assert json.loads(out)["error"].endswith(f"unrecognized arguments: {flag} 0.5")


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["analyze"],
                                  ["analyze", "--fixture", "nosuch"],
                                  ["exponents", "both.json", "--fixture", "heat"],
                                  ["verify", "--fixture", "heat", "--t", "abc"],
                                  ["evolve", "--fixture", "heat", "--grid-points", "1.5"],
                                  ["norms", "--fixture", "heat", "--p"]])
def test_malformed_command_line_is_parse_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    rep = json.loads(out)
    assert code == EXIT_PARSE
    assert (rep["kind"], rep["module"], rep["operation"]) == ("ParseError", "cli",
                                                              "parse_args")
    assert capsys.readouterr().err == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--t-grid" in capsys.readouterr().out


ROOT = Path(__file__).resolve().parents[1]


def test_readme_synopsis_lists_each_commands_options():
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI")[1].split("```")[1]
    synopsis = {}
    for line in block.strip().splitlines():
        if line.startswith("qsemi "):
            command = line.split()[1]
        synopsis.setdefault(command, set()).update(re.findall(r"--[a-z-]+", line))
    assert synopsis == {name: {"--fixture", "--tol", *options}
                        for name, (_, options) in cli._COMMANDS.items()}


def test_gamma_pencil_failure_is_a_typed_error(capsys):
    # on this grid the Cholesky inside the gamma pencil fails at a point where
    # lambda_min(A_t) > 0; that point fails the selection like any other
    grid = np.logspace(-6, -5, 10)
    code, out = run_cli(capsys, "decompose", str(ROOT / "bench" / "rank_n_kernel_gate_n2.json"),
                        "--t", "1e-5", "--t-grid", "1e-6,1e-5,10")
    rep = json.loads(out)
    assert code in (EXIT_OK, EXIT_MATH)
    if code == EXIT_MATH:
        assert rep["kind"] == "GammaCollapsed"
        named = re.search(r"at t = (\S+) ", rep["error"]).group(1)
        assert named in {f"{t:.3g}" for t in grid}


def test_norms_rejects_p_above_q(capsys):
    code, out = run_cli(capsys, "norms", "--fixture", "heat", "--p", "3", "--q", "2",
                        "--t", "0.1")
    rep = json.loads(out)
    assert code == EXIT_MATH
    assert (rep["kind"], rep["operation"]) == ("ExponentOrder", "op_norm_lower_gaussian")


def test_python_m_qsemi_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "qsemi", "analyze", "--fixture", "heat"],
                         capture_output=True, text=True, env=env, check=False)
    assert run.returncode == EXIT_OK, run.stderr
    assert json.loads(run.stdout)["k0"] == 0

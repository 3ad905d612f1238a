"""CLI behavior: determinism, exit codes, problem-file parsing, reports."""
import json

import numpy as np

from qsemi.cli import EXIT_MATH, EXIT_OK, EXIT_PARSE, dumps_canonical, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


def test_verify_kolmogorov(capsys):
    code, out = run_cli(capsys, "verify", "--fixture", "kolmogorov", "--t", "0.05")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["passed"] is True
    assert rep["matrix_residual"] < 1e-9
    assert rep["kernel_residual"] < 1e-6


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


def test_problem_file_rejects_nonaccretive(tmp_path, capsys):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({
        "n": 1,
        "Q_re": [[-1.0, 0.0], [0.0, 0.0]],
    }))
    code, out = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_PARSE


def test_missing_input_is_parse_error(capsys):
    code, out = run_cli(capsys, "analyze")
    assert code == EXIT_PARSE


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


def test_norms_exact_1_inf(capsys):
    code, out = run_cli(capsys, "norms", "--fixture", "heat", "--t", "0.37",
                        "--p", "1", "--q", "inf")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert abs(rep["norm"] - (4 * np.pi * 0.37) ** -0.5) < 1e-12
    assert rep["method"] == "exact sup |g|"


def test_mehler_report(capsys):
    code, out = run_cli(capsys, "mehler", "--fixture", "harmonic", "--t", "1.0")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert abs(rep["c"]["re"] - 1 / np.cosh(0.5)) < 1e-10
    assert rep["diagnostics"] is not None


def test_evolve_x_squared_demo(capsys):
    code, out = run_cli(capsys, "evolve", "--fixture", "x-squared", "--t", "0.1")
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["jump_preserved"] is True
    assert rep["kernel_error"] == "NonIntegrableSymbol"


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

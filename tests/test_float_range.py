"""Every command near float range: a result or a typed error, never a traceback.

The problem files scale the fixtures by factors up to 1e300 and down to
1e-300, or hold an entry of 1.7e308; the input states of evolve have an
entry of 1.7e308, or an output whose prefactor overflows.  Each command runs
in process and must exit 0, 2, 3 or 4 with one JSON report on stdout; the
suite's filterwarnings turns a RuntimeWarning on the way into a failure.
"""
import json

import pytest

from qsemi import cli
from qsemi.fixtures import get_fixture


def scaled(name: str, c: float) -> dict:
    q = get_fixture(name)
    Q = q.Q * c
    return {"n": q.n, "Q_re": Q.real.tolist(), "Q_im": Q.imag.tolist()}


PROBLEMS = {
    "entry-1.7e308": {"n": 1, "Q_re": [[1.7e308, 0], [0, 1]]},
    "heat-1e300": scaled("heat", 1e300),
    "heat-1e-300": scaled("heat", 1e-300),
    "harmonic-1e154": scaled("harmonic", 1e154),
    "harmonic-1e300": scaled("harmonic", 1e300),
    "schrodinger-1e300": {"n": 1, "Q_re": [[0, 0], [0, 0]],
                          "Q_im": [[0.5e300, 0], [0, 0.5e300]]},
    "kolmogorov-1e300": scaled("kolmogorov", 1e300),
    "fokker-planck-1e200": scaled("fokker-planck", 1e200),
    "re-im-1e300": {"n": 1, "Q_re": [[1e300, 0], [0, 1e300]],
                    "Q_im": [[0, 1e300], [1e300, 0]]},
}

#: (fixture, --input state, exit code, what the report holds): an output
#: whose prefactor overflows is refused as it leaves the floats, and a state
#: of entry 1.7e308 is symmetrized as A/2 + A^T/2, with no overflow
INPUTS = {
    "heat-A-1.7e308": ("heat", {"A_re": [[1.7e308]]}, cli.EXIT_OK, '"A": [5.0]'),
    "kolmogorov-A-1.7e308": ("kolmogorov", {"A_re": [[1.7e308, 0], [0, 1]]}, cli.EXIT_MATH,
                             "[evolve.GaussianState] A must have positive-definite real "
                             "part (lambda_min = 1.000e+00)"),
    "heat-b-1000": ("heat", {"A_re": [[1]], "b_re": [1000]}, cli.EXIT_MATH,
                    "[evolve.GaussianState] c, A and b must be finite"),
    "heat-c-1e308": ("heat", {"A_re": [[1]], "c_re": 1e308, "b_re": [30]}, cli.EXIT_MATH,
                     "[evolve.GaussianState] c, A and b must be finite"),
}


def run(capsys, argv) -> tuple[int, str]:
    """cli.main's exit code, one of the documented four, and its stdout, one
    JSON report, which holds an error exactly when the run exits 2 or 3."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_MATH, cli.EXIT_VERIFY)
    assert ("error" in json.loads(out)) == (code in (cli.EXIT_PARSE, cli.EXIT_MATH))
    return code, out


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_every_command_near_float_range_ends_in_a_report(tmp_path, capsys, problem,
                                                         command):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEMS[problem]))
    run(capsys, [command, str(path)])


@pytest.mark.parametrize("state", sorted(INPUTS))
def test_evolve_of_an_input_near_float_range_ends_in_a_report(tmp_path, capsys, state):
    fixture, u, code, holds = INPUTS[state]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(u))
    got, out = run(capsys, ["evolve", "--fixture", fixture, "--input", str(path)])
    assert got == code and holds in out

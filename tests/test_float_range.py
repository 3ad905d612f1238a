"""Every command near float range: a result or a typed error, never a traceback.

The problem files scale the fixtures by factors up to 1e300 and down to
1e-300, or hold an entry of 1.7e308; the input states of evolve have an
entry of 1.7e308, or an output whose prefactor overflows; the times run up
to 1.7e308.  Each command runs in process and must exit 0, 2, 3 or 4 with
one JSON report on stdout; the suite's filterwarnings turns a RuntimeWarning
on the way into a failure.
"""
import json
import re

import pytest

from qsemi import cli
from qsemi.fixtures import fixture_names, get_fixture


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


#: times where the flow, the symbol or the polar factors leave the floats
LARGE_T = ("1e15", "1e16", "1e100", "9e307", "1.7e308")


@pytest.mark.parametrize("t", LARGE_T)
@pytest.mark.parametrize("fixture", fixture_names())
@pytest.mark.parametrize("command", sorted(name for name, (_, options) in cli._COMMANDS.items()
                                           if "--t" in options))
def test_every_command_at_a_time_near_float_range_ends_in_a_report(capsys, command,
                                                                   fixture, t):
    # a report with no nan or inf in it: "q": "inf" is norms' exponent, as given
    _, out = run(capsys, [command, "--fixture", fixture, "--t", t])
    rep = json.loads(out)
    rep.pop("q", None)
    assert not re.search(r'"-?(nan|inf)"', json.dumps(rep)), out


@pytest.mark.parametrize("argv", [
    ["norms", "--fixture", "kolmogorov", "--t", "1e99"],
    ["norms", "--fixture", "kolmogorov", "--t", "1e101"],
    ["exponents", "--fixture", "kolmogorov", "--t-grid", "1e90,1e110,5"],
], ids=lambda argv: " ".join(argv[3:]))
def test_a_flow_whose_lu_underflows_is_degenerate_time(capsys, argv):
    # M's entries spread from 1e-299 to 1, and the LU that solves for the
    # kernel meets an exact zero pivot: that entry's kernel is past float
    # reach, as at t = 1e80
    code, out = run(capsys, argv)
    rep = json.loads(out)
    assert code == cli.EXIT_MATH
    assert (rep["kind"], rep["operation"]) == ("DegenerateTime", "flow_kernel")


def test_a_conjugate_point_past_float_range_is_found_quietly(tmp_path, capsys):
    # t |lambda| overflows for the real eigenvalue 10 of JQ: the bound and the
    # conjugate point are still decided, with no overflow on the way
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 1, "Q_re": [[0, 0], [0, 0]],
                                "Q_im": [[10, 0], [0, 10]]}))
    for command in ("mehler", "kernel"):
        code, out = run(capsys, [command, str(path), "--t", "1.7e308"])
        assert code == cli.EXIT_MATH and "det cos vanishes on the path" in out

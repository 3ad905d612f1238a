"""Command-line front end: parse problem files, run pipelines, emit
machine-readable reports.

Reports are JSON with sorted keys and floats printed with 17 significant
digits, so identical inputs produce byte-identical output.  Exit codes:
0 ok, 2 parse error, 3 math-domain error, 4 verification failed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import errors
from .decompose import build_decomposition, default_t_grid, verify_decomposition
from .evolve import (
    GaussianState,
    apply_kernel_gaussian,
    compute_cpq,
    counterexample_demo,
    fit_exponent,
    lp_norm,
    norm_sweep,
    on_edge,
    op_norm_1_inf,
    young_exponent,
)
from .fixtures import fixture_names, get_fixture
from .matfun import DEFAULT_TOL, relative_distance
from .mehler import diagnostics_PVMN, kernel_from_symbol, mehler_symbol
from .quadform import QuadraticForm, _symmetrized, _unchecked, block_decompose
from .singular import graph_condition, singular_space

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_VERIFY = 4


# --------------------------------------------------------------------------
# canonical JSON

def _fmt_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".1f" if x.is_integer() and abs(x) < 1e16 else ".17g")
    if x != x:
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    pad = "  " * indent
    pad1 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad1}{json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}'
                 for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        # a Python float is formatted in place: the lists of a report are
        # mostly floats, and bools, numpy scalars and the rest recurse
        items = [_fmt_float(v) if type(v) is float else dumps_canonical(v, indent + 1)
                 for v in obj]
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
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return dumps_canonical({"im": float(obj.imag), "re": float(obj.real)},
                               indent)
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist(), indent)
    return json.dumps(obj)


def _matrix_out(M) -> list:
    M = np.asarray(M)
    if np.iscomplexobj(M) and np.abs(M.imag).max(initial=0.0) > 0:
        return [{"im": float(v.imag), "re": float(v.real)} for v in M.ravel()]
    return np.real(M).ravel().tolist()


# --------------------------------------------------------------------------
# problem files

def _parse_error(message: str, operation: str) -> errors.ParseError:
    return errors.ParseError(message, module="cli", operation=operation)


def _read_problem_file(path: str) -> dict:
    """The JSON object of a problem file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:  # ValueError: not UTF-8 or JSON
        raise _parse_error(f"cannot read problem file: {exc}",
                           "load_problem") from exc
    if not isinstance(data, dict):
        raise _parse_error("problem file must hold a JSON object",
                           "load_problem")
    return data


def resolve_tol(flag: float | None, problem: dict) -> float:
    """The tolerance of a run: --tol, else the problem file's
    tolerances.default, else the environment variable QSEMI_TOL, else 1e-9.

    It must be a finite number in (0, 1) (ParseError otherwise): the rank
    decisions take it as relative, and at 1 or more they keep nothing.
    """
    tolerances = problem.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise _parse_error(f"tolerances must be an object, got {tolerances!r}",
                           "resolve_tol")
    if flag is not None:
        source, value = "--tol", flag
    elif "default" in tolerances:
        source, value = "tolerances.default", tolerances["default"]
    elif "QSEMI_TOL" in os.environ:
        source, value = "QSEMI_TOL", os.environ["QSEMI_TOL"]
    else:
        return DEFAULT_TOL
    try:
        tol = float(value) if source == "QSEMI_TOL" else _number(value, source)
    except (OverflowError, TypeError, ValueError) as exc:
        raise _parse_error(f"{source} = {value!r} is not a number",
                           "resolve_tol") from exc
    if not 0 < tol < 1:
        raise _parse_error(f"{source} = {tol} must be positive and below 1",
                           "resolve_tol")
    return tol


def _integer(value, name: str) -> int:
    """A count of a problem file, which must be a JSON integer (ValueError)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} = {value!r} must be an integer")
    return value


def _number(value, name: str) -> float:
    """A number of a problem file, which must be a JSON number, not a boolean
    or a string (ValueError)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} = {value!r} must be a number")
    return float(value)


#: the types of the JSON numbers a problem file may hold (not bool)
_NUMBER_TYPES = frozenset((int, float))


def _matrix(value, name: str, shape: tuple) -> np.ndarray:
    """An array of the given shape from a problem or state file, nested
    lists of JSON numbers (ValueError).  Entries all of a number type convert
    in one pass; otherwise _number names the first entry that is not a
    number."""
    entries = np.asarray(value, dtype=object).ravel().tolist()
    if not _NUMBER_TYPES.issuperset(map(type, entries)):
        entries = [_number(v, f"an entry of {name}") for v in entries]
    return np.array(entries, dtype=float).reshape(shape)


def load_problem(fixture: str | None, problem: dict, tol: float) -> QuadraticForm:
    """The form of the run at its tolerance tol (resolve_tol's), which every
    stage reads from it: --fixture's, else the problem file's object, whose
    Re Q QuadraticForm must find PSD within tol (ParseError if not).  A
    fixture's Re Q is PSD exactly, so it is not checked again at tol."""
    if fixture:
        form = get_fixture(fixture)
        form.tol = tol
        return form
    try:
        n = _integer(problem["n"], "n")
        if n < 1:
            raise ValueError(f"n = {n} must be at least 1")
        Q_re = _matrix(problem["Q_re"], "Q_re", (2 * n, 2 * n))
        Q_im = (_matrix(problem["Q_im"], "Q_im", (2 * n, 2 * n))
                if "Q_im" in problem else np.zeros_like(Q_re))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise _parse_error(f"malformed problem file: {exc}", "load_problem") from exc
    if not (np.isfinite(Q_re).all() and np.isfinite(Q_im).all()):
        raise _parse_error("Q_re and Q_im must be finite", "load_problem")
    Q = Q_re + 1j * Q_im
    # the file's one asymmetry: refused above 1e-9, warned of above 1e-12
    if (asym := relative_distance(Q, Q.T)) > 1e-9:
        raise _parse_error("Q is not symmetric within 1e-9", "load_problem")
    try:
        return _unchecked(n, _symmetrized(Q, asym, tol), tol)
    except errors.NotPSDWithinTol as exc:
        raise _parse_error(str(exc), "load_problem") from exc


#: whether a --t-grid spacing, in any case, is log-spaced
_SPACINGS = {"log": True, "true": True, "1": True, "lin": False, "false": False, "0": False}


def load_t_grid(flag: str | None, problem: dict) -> np.ndarray | None:
    """The t grid: --t-grid t_min,t_max,points[,log|lin], else the problem
    file's t_grid (an integer points, a boolean log_spaced), else None, which
    leaves it to decompose's default.

    Every grid point must be positive (ParseError otherwise): at t = 0 there
    is neither a kernel nor a factorization to check."""
    try:
        if flag:
            parts = flag.split(",")
            spacing = parts[3].strip().lower() if len(parts) == 4 else "log"
            if len(parts) not in (3, 4) or spacing not in _SPACINGS:
                raise ValueError(f"--t-grid {flag!r} is not t_min,t_max,points[,log|lin]")
            t_min, t_max, points = float(parts[0]), float(parts[1]), int(parts[2])
            log_spaced = _SPACINGS[spacing]
        elif problem.get("t_grid"):
            spec = problem["t_grid"]
            t_min, t_max = _number(spec["t_min"], "t_min"), _number(spec["t_max"], "t_max")
            points = _integer(spec["points"], "points")
            log_spaced = spec.get("log_spaced", True)
            if not isinstance(log_spaced, bool):
                raise ValueError(f"log_spaced = {log_spaced!r} is not a boolean")
        else:
            return None
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise _parse_error(f"malformed t grid: {exc}", "load_t_grid") from exc
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or points < 1:
        raise _parse_error(f"t grid needs finite ends and points >= 1, got "
                           f"({t_min}, {t_max}, {points})", "load_t_grid")
    if min(t_min, t_max) <= 0:
        raise _parse_error(f"a t grid needs t_min, t_max > 0, got ({t_min}, {t_max})",
                           "load_t_grid")
    if log_spaced:
        return np.logspace(np.log10(t_min), np.log10(t_max), points)
    return np.linspace(t_min, t_max, points)


# --------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> dict:
    report = singular_space(args.form)
    cert = graph_condition(report)
    out = {
        "n": args.form.n,
        "S_basis": _matrix_out(report.basis),
        "S_dim": report.dim,
        "k0": report.k0,
        "gap_ratio": report.gap_ratio,
    }
    if cert is None:
        out["graph"] = None
        out["verdict"] = "fails: S meets {0} x R^n; no smoothing into C^inf"
    else:
        out["graph"] = {"G": _matrix_out(cert.G), "N": _matrix_out(cert.N),
                        "Gsym": _matrix_out(cert.Gsym)}
        out["verdict"] = ("graph condition holds: maps L^p to L^q and C^inf "
                          "for 1 <= p <= q <= inf")
    return out


def cmd_mehler(args) -> dict:
    sym = mehler_symbol(args.form, args.t)
    out = {"t": sym.t, "c": sym.c, "M": _matrix_out(sym.M)}
    bf = block_decompose(sym.M)
    out["blocks"] = {"R": _matrix_out(bf.R), "L": _matrix_out(bf.L),
                     "B": _matrix_out(bf.B)}
    try:
        d = diagnostics_PVMN(sym)
        out["diagnostics"] = {"P": _matrix_out(d.P), "V": _matrix_out(d.V),
                              "Mleft": _matrix_out(d.Mleft),
                              "Nright": _matrix_out(d.Nright)}
    except errors.NonIntegrableSymbol:
        out["diagnostics"] = None
    return out


def cmd_kernel(args) -> dict:
    k = kernel_from_symbol(mehler_symbol(args.form, args.t))
    return {"t": args.t, "prefactor": k.c, "K": _matrix_out(k.K),
            "sup_norm": op_norm_1_inf(k, tol=args.form.tol)}


def cmd_decompose(args) -> dict:
    f = build_decomposition(args.form, args.t, t_grid=args.t_grid)
    return {
        "t": f.t, "alpha": f.alpha, "gamma": f.gamma, "t0": f.t0,
        "c_t": f.c_t, "s": f.s, "prefactor": f.prefactor,
        "G": _matrix_out(f.G), "N": _matrix_out(f.N),
        "Gsym": _matrix_out(f.Gsym), "Pt": _matrix_out(f.Pt),
        "D": _matrix_out(f.unitary.D), "M": _matrix_out(f.unitary.M),
        "W": _matrix_out(f.unitary.W), "Rs": _matrix_out(f.Rs),
        "unitary_residual": f.unitary.residual,
        "polar_recon_residual": f.polar.recon_residual,
    }


def cmd_verify(args) -> dict:
    f = build_decomposition(args.form, args.t, t_grid=args.t_grid)
    res = verify_decomposition(f)
    res["t"] = args.t
    res["passed"] = bool(res["matrix_residual"] < 1e-9
                         and res["kernel_residual"] < 1e-6)
    return res


def _input_state(args, n: int) -> GaussianState:
    """The --input state: a JSON object with A_re and optional A_im, b_re,
    b_im, c_re, c_im (n x n and n entries, finite JSON numbers as in a
    problem file); else exp(-|x|^2/2).
    """
    if not args.input:
        return GaussianState(n, 1.0, np.eye(n, dtype=complex), np.zeros(n))
    try:
        with open(args.input, encoding="utf-8") as fh:
            d = json.load(fh)
        A_re = _matrix(d["A_re"], "A_re", (n, n))
        A_im = _matrix(d.get("A_im", np.zeros((n, n))), "A_im", (n, n))
        b_re = _matrix(d.get("b_re", np.zeros(n)), "b_re", n)
        b_im = _matrix(d.get("b_im", np.zeros(n)), "b_im", n)
        c_re = _number(d.get("c_re", 1.0), "c_re")
        c_im = _number(d.get("c_im", 0.0), "c_im")
    except (AttributeError, KeyError, OSError, OverflowError, RecursionError, TypeError,
            ValueError) as exc:
        raise _parse_error(f"malformed input state: {exc}", "input_state") from exc
    if not all(np.isfinite(x).all() for x in (A_re, A_im, b_re, b_im, c_re, c_im)):
        raise _parse_error("input state entries must be finite", "input_state")
    return GaussianState(n, complex(c_re, c_im), A_re + 1j * A_im, b_re + 1j * b_im)


def cmd_evolve(args) -> dict:
    """The Gaussian evolution of --input, or, for a form without the graph
    condition, the jump demo, which takes no input state (ParseError)."""
    q = args.form
    if graph_condition(singular_space(q)) is None:
        if args.input is not None:
            raise _parse_error(f"evolve: --input {args.input} is not read: the jump "
                               "demo takes no input state", "cmd_evolve")
        return counterexample_demo(q, args.t)
    u = _input_state(args, q.n)
    k = kernel_from_symbol(mehler_symbol(q, args.t))
    v = apply_kernel_gaussian(k, u)
    return {
        "t": args.t,
        "output": {"c": v.c, "A": _matrix_out(v.A), "b": _matrix_out(v.b)},
        "norms": {"L1": lp_norm(v, 1), "L2": lp_norm(v, 2),
                  "Linf": lp_norm(v, np.inf)},
    }


def _time(value: str) -> float:
    """A --t value, which must be a finite number: every command that takes a
    time decides it here, before any pipeline."""
    try:
        t = float(value)
    except ValueError:
        t = math.nan
    if not math.isfinite(t):
        raise argparse.ArgumentTypeError(f"{value!r} is not a finite number")
    return t


def _parse_exponent(s: str) -> float:
    try:
        return np.inf if s in ("inf", "Inf", "oo") else float(s)
    except ValueError as exc:
        raise _parse_error(f"exponent {s!r} is not a number", "parse_exponent") from exc


#: how norm_sweep computes the norm, by (p == 1, q == inf)
_NORM_METHODS = {
    (True, True): "exact sup |g|",
    (False, True): "exact sup_x |g(x, .)|_p'",
    (True, False): "exact sup_y |g(., y)|_q",
    (False, False): "gaussian lower bound",
}


def cmd_norms(args) -> dict:
    value = norm_sweep(args.form, args.t, args.p, args.q)
    method = _NORM_METHODS[args.p == 1, bool(np.isinf(args.q))]
    return {"t": args.t, "p": args.p, "q": args.q, "norm": value, "method": method}


def cmd_exponents(args) -> dict:
    report = singular_space(args.form)
    grid = default_t_grid() if args.t_grid is None else args.t_grid
    norms = norm_sweep(args.form, grid, args.p, args.q)
    slope, r_squared = fit_exponent(grid, norms)
    cpq = compute_cpq(args.p, args.q, args.form.n, report.k0)
    if abs(slope + cpq) <= 0.02:
        verdict = "tight"
    elif slope >= -cpq - 0.02:
        verdict = "respected"
    else:
        verdict = "violated"
    if args.out:
        np.savetxt(args.out, np.column_stack([grid, norms]), fmt="%.17g",
                   delimiter=",", header="t,value", comments="", encoding="utf-8")
    return {"p": args.p, "q": args.q, "r": young_exponent(args.p, args.q),
            "k0": report.k0, "fitted_slope": slope, "r_squared": r_squared,
            "cpq_bound": cpq, "verdict": verdict,
            "exact": on_edge(args.p, args.q),
            "t_values": list(map(float, grid)),
            "norms": list(map(float, norms))}


# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a ParseError, not as usage text."""

    def error(self, message):
        raise _parse_error(f"{self.prog}: {message}", "parse_args")


class _CommandParser(_Parser):
    """A command's parser: it takes an option it does not know as unrecognized,
    with its value.  The top-level parser passes every token after the command
    on to it."""

    def parse_known_args(self, args=None, namespace=None):
        """argparse's, except that an option this parser does not know is
        unrecognized together with the token after it, unless that token is an
        option (a negative number is a value, as argparse reads it): argparse
        would give that token to the problem-file slot."""
        known, number = self._option_string_actions, self._negative_number_matcher
        kept, unknown = [], []
        i = 0
        while i < len(args):
            token = args[i]
            if token == "--":
                kept += args[i:]
                break
            if token.startswith("--") and token.split("=")[0] not in known:
                has_next = "=" not in token and i + 1 < len(args)
                takes = has_next and (not args[i + 1].startswith("-")
                                      or number.match(args[i + 1]) is not None)
                unknown += args[i:i + 1 + takes]
                i += 1 + takes
            else:
                kept.append(token)
                i += 1
        namespace, extras = super().parse_known_args(kept, namespace)
        return namespace, unknown + extras


#: the options besides the problem source and --tol; a command's parser knows
#: only those of its _COMMANDS entry, and takes any other as unrecognized
_OPTIONS = {
    "--t": {"type": _time, "default": 0.1},
    "--t-grid": {"help": "t_min,t_max,points[,log|lin]"},
    "--input": {"help": "Gaussian input state (JSON)"},
    "--p": {"type": _parse_exponent, "default": "1"},
    "--q": {"type": _parse_exponent, "default": "inf"},
    "--out": {"help": "write the t-sweep as CSV (t,value)"},
}
_COMMANDS = {
    "analyze": (cmd_analyze, ()),
    "mehler": (cmd_mehler, ("--t",)),
    "kernel": (cmd_kernel, ("--t",)),
    "decompose": (cmd_decompose, ("--t", "--t-grid")),
    "verify": (cmd_verify, ("--t", "--t-grid")),
    "evolve": (cmd_evolve, ("--t", "--input")),
    "norms": (cmd_norms, ("--t", "--p", "--q")),
    "exponents": (cmd_exponents, ("--t-grid", "--p", "--q", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    # no prefix is read as an option (--to is not --tol): a command's parser takes
    # it as unknown, and the top level's allow_abbrev=False rejects one of --help
    ap = _Parser(prog="qsemi", allow_abbrev=False,
                 description="analyze semigroups generated by accretive quadratic "
                             "differential operators")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (fn, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("file", nargs="?", help="problem file (JSON)")
        source.add_argument("--fixture", choices=fixture_names(),
                            help="built-in fixture instead of a file")
        p.add_argument("--tol", type=float)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        problem = {} if args.fixture else _read_problem_file(args.file)
        tol = resolve_tol(args.tol, problem)
        if "t_grid" in args:
            args.t_grid = load_t_grid(args.t_grid, problem)
        args.form = load_problem(args.fixture, problem, tol)
        report = args.fn(args)
    except errors.QsemiError as exc:
        print(dumps_canonical({"error": str(exc), "kind": type(exc).__name__,
                               "module": exc.module, "operation": exc.operation}))
        return EXIT_PARSE if isinstance(exc, errors.ParseError) else EXIT_MATH
    print(dumps_canonical(report))
    if args.command == "verify" and not report["passed"]:
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

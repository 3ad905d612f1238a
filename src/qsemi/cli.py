"""Command-line front end: parse problem files, run pipelines, emit
machine-readable reports.

Reports are JSON with sorted keys and floats printed with 17 significant
digits, so identical inputs produce byte-identical output.  Exit codes:
0 ok, 2 parse error, 3 math-domain error, 4 verification failed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import errors
from .decompose import build_decomposition, verify_decomposition
from .evolve import (
    GaussianState,
    apply_kernel_gaussian,
    counterexample_demo,
    lp_norm,
    norm_fit_report,
    op_norm_1_inf,
    op_norm_lower_gaussian,
)
from .fixtures import fixture_names, get_fixture
from .matfun import DEFAULT_TOL, psd_check
from .mehler import diagnostics_PVMN, kernel_from_symbol, mehler_symbol
from .quadform import QuadraticForm, block_decompose
from .singular import graph_condition, singular_space

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_VERIFY = 4


# --------------------------------------------------------------------------
# canonical JSON

def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


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
        items = [dumps_canonical(v, indent + 1) for v in obj]
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

def load_problem(args) -> QuadraticForm:
    """Build the form from --fixture or a JSON problem file."""
    if args.fixture:
        return get_fixture(args.fixture)
    if not args.file:
        raise errors.ParseError("either a problem file or --fixture is required",
                                module="cli", operation="load_problem")
    try:
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.ParseError(f"cannot read problem file: {exc}",
                                module="cli", operation="load_problem") from exc
    try:
        n = int(data["n"])
        Q_re = np.asarray(data["Q_re"], dtype=float).reshape(2 * n, 2 * n)
        Q_im = np.asarray(data.get("Q_im", np.zeros((2 * n, 2 * n))),
                          dtype=float).reshape(2 * n, 2 * n)
    except (KeyError, TypeError, ValueError) as exc:
        raise errors.ParseError(f"malformed problem file: {exc}",
                                module="cli", operation="load_problem") from exc
    Q = Q_re + 1j * Q_im
    scale = max(1.0, float(np.linalg.norm(Q)))
    if np.linalg.norm(Q - Q.T) > 1e-9 * scale:
        raise errors.ParseError("Q is not symmetric within 1e-9",
                                module="cli", operation="load_problem")
    ok, lam = psd_check(Q.real, tol=1e-9 * scale)
    if not ok:
        raise errors.ParseError(
            f"Re Q is not positive semidefinite (lambda_min = {lam:.3e})",
            module="cli", operation="load_problem")
    tol = float(data.get("tolerances", {}).get("default", default_tol()))
    return QuadraticForm(n, Q, tol)


def load_t_grid(args) -> np.ndarray:
    if args.t_grid:
        parts = args.t_grid.split(",")
        t_min, t_max, points = float(parts[0]), float(parts[1]), int(parts[2])
        log_spaced = len(parts) < 4 or parts[3].strip().lower() in ("log", "true", "1")
        if log_spaced:
            return np.logspace(np.log10(t_min), np.log10(t_max), points)
        return np.linspace(t_min, t_max, points)
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
        grid_spec = data.get("t_grid")
        if grid_spec:
            if grid_spec.get("log_spaced", True):
                return np.logspace(np.log10(grid_spec["t_min"]),
                                   np.log10(grid_spec["t_max"]),
                                   grid_spec["points"])
            return np.linspace(grid_spec["t_min"], grid_spec["t_max"],
                               grid_spec["points"])
    return np.logspace(-3, -1, 20)


def default_tol() -> float:
    return float(os.environ.get("QSEMI_TOL", DEFAULT_TOL))


# --------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> dict:
    q = load_problem(args)
    tol = args.tol
    report = singular_space(q, tol=tol)
    cert = graph_condition(report, tol=tol)
    out = {
        "n": q.n,
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
    q = load_problem(args)
    sym = mehler_symbol(q, args.t, tol=args.tol)
    out = {"t": sym.t, "c": sym.c, "M": _matrix_out(sym.M)}
    bf = block_decompose(sym.M)
    out["blocks"] = {"R": _matrix_out(bf.R), "L": _matrix_out(bf.L),
                     "B": _matrix_out(bf.B)}
    try:
        d = diagnostics_PVMN(sym, tol=args.tol)
        out["diagnostics"] = {"P": _matrix_out(d.P), "V": _matrix_out(d.V),
                              "Mleft": _matrix_out(d.Mleft),
                              "Nright": _matrix_out(d.Nright)}
    except errors.NonIntegrableSymbol:
        out["diagnostics"] = None
    return out


def cmd_kernel(args) -> dict:
    q = load_problem(args)
    k = kernel_from_symbol(mehler_symbol(q, args.t, tol=args.tol), tol=args.tol)
    return {"t": args.t, "prefactor": k.c, "K": _matrix_out(k.K),
            "sup_norm": op_norm_1_inf(k)}


def cmd_decompose(args) -> dict:
    q = load_problem(args)
    f = build_decomposition(q, args.t, t_grid=load_t_grid(args), tol=args.tol)
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
    q = load_problem(args)
    f = build_decomposition(q, args.t, t_grid=load_t_grid(args), tol=args.tol)
    res = verify_decomposition(f, tol=args.tol)
    res["t"] = args.t
    res["passed"] = bool(res["matrix_residual"] < 1e-9
                         and res["kernel_residual"] < 1e-6)
    return res


def _input_state(args, n: int) -> GaussianState:
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            d = json.load(fh)
        A = (np.asarray(d["A_re"], float).reshape(n, n)
             + 1j * np.asarray(d.get("A_im", np.zeros((n, n))), float).reshape(n, n))
        b = (np.asarray(d.get("b_re", np.zeros(n)), float).reshape(n)
             + 1j * np.asarray(d.get("b_im", np.zeros(n)), float).reshape(n))
        c = complex(d.get("c_re", 1.0), d.get("c_im", 0.0))
        return GaussianState(n, c, A, b)
    return GaussianState(n, 1.0, np.eye(n, dtype=complex), np.zeros(n))


def cmd_evolve(args) -> dict:
    q = load_problem(args)
    if args.fixture == "x-squared":
        points = max(args.grid_points, 3) | 1  # odd count puts a node at 0
        return counterexample_demo(q, args.t, points=points,
                                   domain=args.domain, tol=args.tol)
    u = _input_state(args, q.n)
    k = kernel_from_symbol(mehler_symbol(q, args.t, tol=args.tol), tol=args.tol)
    v = apply_kernel_gaussian(k, u)
    return {
        "t": args.t,
        "output": {"c": v.c, "A": _matrix_out(v.A), "b": _matrix_out(v.b)},
        "norms": {"L1": lp_norm(v, 1), "L2": lp_norm(v, 2),
                  "Linf": lp_norm(v, np.inf)},
    }


def _parse_exponent(s: str) -> float:
    return np.inf if s in ("inf", "Inf", "oo") else float(s)


def cmd_norms(args) -> dict:
    q = load_problem(args)
    p, qq = _parse_exponent(args.p), _parse_exponent(args.q)
    k = kernel_from_symbol(mehler_symbol(q, args.t, tol=args.tol), tol=args.tol)
    if p == 1 and np.isinf(qq):
        value, method = op_norm_1_inf(k), "exact sup |g|"
    else:
        value, method = op_norm_lower_gaussian(k, p, qq), "gaussian lower bound"
    return {"t": args.t, "p": p, "q": qq, "norm": value, "method": method}


def cmd_exponents(args) -> dict:
    q = load_problem(args)
    p, qq = _parse_exponent(args.p), _parse_exponent(args.q)
    report = singular_space(q, tol=args.tol)
    grid = load_t_grid(args)
    norms = []
    for t in grid:
        k = kernel_from_symbol(mehler_symbol(q, float(t), tol=args.tol),
                               tol=args.tol)
        if p == 1 and np.isinf(qq):
            norms.append(op_norm_1_inf(k))
        else:
            norms.append(op_norm_lower_gaussian(k, p, qq))
    fit = norm_fit_report(p, qq, q.n, report.k0, grid, norms)
    if abs(fit.fitted_slope + fit.cpq) <= 0.02:
        verdict = "tight"
    elif fit.fitted_slope >= -fit.cpq - 0.02:
        verdict = "respected"
    else:
        verdict = "violated"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t,value\n")
            for t, v in zip(grid, norms):
                fh.write(f"{format(float(t), '.17g')},{format(float(v), '.17g')}\n")
    return {"p": p, "q": qq, "r": fit.r, "k0": report.k0,
            "fitted_slope": fit.fitted_slope, "r_squared": fit.r_squared,
            "cpq_bound": fit.cpq, "verdict": verdict,
            "t_values": list(map(float, grid)),
            "norms": list(map(float, norms))}


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsemi",
        description="analyze semigroups generated by accretive quadratic "
                    "differential operators")
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {
        "analyze": cmd_analyze, "mehler": cmd_mehler, "kernel": cmd_kernel,
        "decompose": cmd_decompose, "verify": cmd_verify, "evolve": cmd_evolve,
        "norms": cmd_norms, "exponents": cmd_exponents,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("file", nargs="?", help="problem file (JSON)")
        p.add_argument("--fixture", choices=fixture_names(),
                       help="built-in fixture instead of a file")
        p.add_argument("--t", type=float, default=0.1)
        p.add_argument("--t-grid", dest="t_grid",
                       help="t_min,t_max,points[,log|lin]")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--grid-points", type=int, default=128)
        p.add_argument("--domain", type=float, default=8.0)
        p.add_argument("--out", help="write the t-sweep as CSV (t,value)")
        if name == "evolve":
            p.add_argument("--input", help="Gaussian input state (JSON)")
        if name in ("norms", "exponents"):
            p.add_argument("--p", default="1")
            p.add_argument("--q", default="inf")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.tol is None:
        args.tol = default_tol()
    try:
        report = args.fn(args)
    except errors.ParseError as exc:
        print(dumps_canonical({"error": str(exc), "kind": type(exc).__name__,
                               "module": exc.module, "operation": exc.operation}))
        return EXIT_PARSE
    except errors.QsemiError as exc:
        print(dumps_canonical({"error": str(exc), "kind": type(exc).__name__,
                               "module": exc.module, "operation": exc.operation}))
        return EXIT_MATH
    print(dumps_canonical(report))
    if args.command == "verify" and not report.get("passed", True):
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

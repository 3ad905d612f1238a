"""Every parameter of every function in src/qsemi is read by its body.

A keyword that the body never reads looks like a setting but changes nothing;
drop it, or make it a module constant if it names a fixed choice.
"""
import ast
import importlib
import inspect
from pathlib import Path

from qsemi.quadform import QuadraticForm
from qsemi.singular import SingularSpaceReport

SRC = Path(__file__).resolve().parents[1] / "src" / "qsemi"


def unread_parameters(source: str):
    """(line, function, parameter) for each parameter no Load of the body names."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        for p in params:
            if p.arg not in read:
                yield node.lineno, getattr(node, "name", "<lambda>"), p.arg


def test_scanner_flags_unread_parameters():
    source = ("def f(a, b, *, tol=1e-9):\n    return a + b\n"
              "def g(x):\n    x = 1\n    return 2\n"
              "def h(u, k):\n    def inner():\n        return u\n    return (lambda: k)()\n")
    assert list(unread_parameters(source)) == [(1, "f", "tol"), (3, "g", "x")]


def test_every_parameter_is_read():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    unread = [f"{path.name}:{line} {fn}({param})" for path in paths
              for line, fn, param in unread_parameters(path.read_text(encoding="utf-8"))]
    assert not unread, unread


def public_functions():
    """(module, name, signature) of each public function src/qsemi defines."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"qsemi.{path.stem}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not name.startswith("_"):
                yield path.stem, name, inspect.signature(fn, eval_str=True)


def test_a_stage_of_a_form_reads_the_forms_tolerance():
    # QuadraticForm.tol, kept on the report, is the run's one tolerance: a tol
    # keyword beside the form would let two stages of one run disagree
    signatures = {f"{module}.{name}": sig for module, name, sig in public_functions()}
    of_a_form = {name for name, sig in signatures.items()
                 if any(p.annotation in (QuadraticForm, SingularSpaceReport)
                        for p in sig.parameters.values())}
    assert {"singular.singular_space", "singular.graph_condition",
            "decompose.build_decomposition", "evolve.norm_sweep"} <= of_a_form
    # these take DEFAULT_TOL, the one value their callers gave
    fixed = {"matfun.mat_log_principal", "matfun.sqrt_det_cos_tracked",
             "decompose.strang_middle"}
    assert not [name for name in sorted(of_a_form | fixed)
                if "tol" in signatures[name].parameters]

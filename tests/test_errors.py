"""Every error class of qsemi.errors is raised or caught somewhere in the library,
and each typed guard raises its kind, named by module.operation.

A QsemiError subclass that no other module of src/qsemi names is an exit code
no input can reach: delete it with the code that raised it.  A re-export in
__init__.py does not count as a use.
"""
import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from qsemi import (
    GaussianState,
    QuadraticForm,
    apply_kernel_gaussian,
    block_decompose,
    compose_kernels,
    counterexample_demo,
    dispersion_gaussian,
    errors,
    fit_exponent,
    get_fixture,
    kernel_from_symbol,
    lp_norm,
    mehler_symbol,
    select_gamma,
    singular_space,
    standard_J,
)
from qsemi.errors import (
    DimensionMismatch,
    ExponentOrder,
    GraphConditionFailed,
    NonPositiveSample,
    NonSquare,
    ParseError,
)
from qsemi.fixtures import heat
from qsemi.matfun import cos_sin_sqrt_det
from qsemi.mehler import kernel_right_dispersion

SRC = Path(__file__).resolve().parents[1] / "src" / "qsemi"


def names_in(source: str) -> set:
    """Every name, attribute and imported name of a module's source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_error_class_is_named_by_another_module():
    classes = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.QsemiError) and cls is not errors.QsemiError
               and cls.__module__ == errors.__name__]
    assert classes
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name not in ("errors.py", "__init__.py")]
    assert paths
    named = set().union(*(names_in(p.read_text(encoding="utf-8")) for p in paths))
    orphans = sorted(set(classes) - named)
    assert not orphans, orphans


def n2_multiplication_form():
    """|x|^2 on R^2: a multiplication form with no graph, outside the demo's n = 1."""
    return QuadraticForm(2, np.diag([1.0, 1.0, 0.0, 0.0]))


def heat_state(n):
    return GaussianState(n, 1.0, np.eye(n), np.zeros(n))


@pytest.mark.parametrize("call, kind, where", [
    (lambda: standard_J(0), DimensionMismatch, "quadform.standard_J"),
    (lambda: block_decompose(np.zeros((3, 3))), DimensionMismatch, "quadform.block_decompose"),
    (lambda: cos_sin_sqrt_det(np.eye(3), 0.1), NonSquare, "matfun.cos_sin_sqrt_det"),
    (lambda: get_fixture("nope"), ParseError, "fixtures.get_fixture"),
    (lambda: GaussianState(2, 1.0, np.eye(2), np.zeros(3)), DimensionMismatch,
     "evolve.GaussianState"),
    (lambda: apply_kernel_gaussian(kernel_from_symbol(mehler_symbol(heat(2), 0.1)),
                                   heat_state(1)),
     DimensionMismatch, "evolve.apply_kernel_gaussian"),
    (lambda: compose_kernels(kernel_from_symbol(mehler_symbol(heat(1), 0.1)),
                             kernel_from_symbol(mehler_symbol(heat(2), 0.1))),
     DimensionMismatch, "mehler.compose_kernels"),
    (lambda: lp_norm(heat_state(1), 0.5), ExponentOrder, "evolve.lp_norm"),
    (lambda: fit_exponent([0.1, 0.2], [1.0, 2.0]), NonPositiveSample, "evolve.fit_exponent"),
    (lambda: select_gamma(heat(), singular_space(heat()), None), GraphConditionFailed,
     "decompose.select_gamma"),
    (lambda: counterexample_demo(n2_multiplication_form(), 0.1), DimensionMismatch,
     "evolve.counterexample_demo"),
    # a D of another size than the kernel's or state's n, or not finite
    (lambda: kernel_right_dispersion(kernel_from_symbol(mehler_symbol(heat(1), 0.1)),
                                     np.eye(2), 0.1),
     DimensionMismatch, "mehler.kernel_right_dispersion"),
    (lambda: kernel_right_dispersion(kernel_from_symbol(mehler_symbol(heat(1), 0.1)),
                                     np.eye(3), 0.1),
     DimensionMismatch, "mehler.kernel_right_dispersion"),
    (lambda: dispersion_gaussian(heat_state(1), np.eye(2), 0.1), DimensionMismatch,
     "evolve.dispersion_gaussian"),
    (lambda: dispersion_gaussian(heat_state(1), [[np.nan]], 0.1), DimensionMismatch,
     "evolve.dispersion_gaussian"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_each_guard_raises_its_typed_error(call, kind, where):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert f"{info.value.module}.{info.value.operation}" == where

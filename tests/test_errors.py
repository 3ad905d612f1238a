"""Every error class of qsemi.errors is raised or caught somewhere in the library.

A QsemiError subclass that no other module of src/qsemi names is an exit code
no input can reach: delete it with the code that raised it.  A re-export in
__init__.py does not count as a use.
"""
import ast
import inspect
from pathlib import Path

from qsemi import errors

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

"""Every public function and class of the library is reached by something.

A public top-level function or class of a module of src/qsemi (errors.py,
whose classes tests/test_errors.py covers, __init__.py and __main__.py
aside) must be named by library code outside its own definition, be a name
of the bench's TRACED, or be imported by tests/test_acceptance.py.  One that
none of them names is code that only its own tests run: delete it with those
tests, or move it to the tests as an oracle.  A re-export in __init__.py
does not count as a use.
"""
import ast
from pathlib import Path

from test_errors import SRC, names_in
from test_trace_names import spans

ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def definitions(tree: ast.Module) -> dict:
    """{name: node} of the public top-level functions and classes of a module."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_every_public_definition_is_reached():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    # the names of each top-level statement, so that a definition's own body
    # (a recursive call, say) can be left out of its uses
    statements = [(stem, node, names_in(ast.unparse(node)))
                  for stem, tree in trees.items() for node in tree.body]
    reached = {qualified.split(".")[1] for qualified in spans.TRACED}
    reached |= {alias.name for node in ast.walk(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qsemi")
                for alias in node.names}
    unreached = []
    for stem, tree in trees.items():
        if stem in ("errors", "__main__"):
            continue
        for name, node in definitions(tree).items():
            used = any(name in names for _, other, names in statements if other is not node)
            if not (used or name in reached):
                unreached.append(f"{stem}.{name}")
    assert not unreached, unreached

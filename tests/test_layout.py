"""The tests keep every reference in one module, `tests/reference.py`: no
file under `tests/` imports a test module, and no test module defines a
top-level function under the name of a reference.  Each `hilbclass verify`
suite takes no parameters, so the tests read the checks the CLI prints."""

import ast
import inspect
from collections import Counter
from pathlib import Path

from hilbclass.verify import SUITES

TESTS = Path(__file__).parent


def functions(tree) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            if node.module is None:  # from . import name
                yield from (alias.name for alias in node.names)


def test_references_live_in_one_module():
    trees = {path.name: ast.parse(path.read_text(), path.name)
             for path in sorted(TESTS.glob("*.py"))}
    assert len(trees) > 2 and "reference.py" in trees
    references = Counter(functions(trees["reference.py"]))
    assert [name for name, count in references.items() if count > 1] == []
    for name, tree in trees.items():
        crossing = [m for m in imported_modules(tree) if m.rsplit(".", 1)[-1].startswith("test_")]
        assert crossing == [], f"{name} imports {crossing}"
        if name.startswith("test_"):
            shadowed = sorted(set(functions(tree)) & set(references))
            assert shadowed == [], f"{name} redefines {shadowed}"


def test_verify_suites_take_no_parameters():
    assert SUITES
    for name, suite in SUITES.items():
        assert inspect.signature(suite).parameters == {}, name

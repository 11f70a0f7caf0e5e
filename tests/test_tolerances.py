"""Every float decision in the package is a named constant.

A float literal at most 1e-6 inside a function body or a default value is
an unnamed tolerance; module-level constants (``maps.TOL``,
``maps.MATCH_TOL`` and the one-module constants) are where they belong.
"""

import ast
from pathlib import Path

import ilim

SOURCES = sorted(Path(ilim.__file__).parent.glob("*.py"))


def _unnamed_tolerances(tree: ast.Module):
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):  # its defaults and its body
                if not isinstance(node, ast.Constant) or not isinstance(node.value, float):
                    continue
                if 0 < node.value <= 1e-6:
                    yield getattr(fn, "name", "<lambda>"), node.lineno, node.value


def test_no_bare_tolerance_literal_in_a_function():
    assert SOURCES
    found = [
        (path.name, *hit)
        for path in SOURCES
        for hit in _unnamed_tolerances(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_guard_sees_bodies_and_defaults():
    tree = ast.parse("X = 1e-9\ndef f(x, tol=1e-9):\n    return abs(x) <= 1e-12 or x > 0.5\n")
    assert [value for _, _, value in _unnamed_tolerances(tree)] == [1e-9, 1e-12]

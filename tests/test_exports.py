"""The package exports exactly what ``ilim/__init__.py`` imports."""

import ast
from pathlib import Path

import ilim

INIT = ast.parse(Path(ilim.__file__).read_text())


def test_every_export_resolves():
    assert [name for name in ilim.__all__ if not hasattr(ilim, name)] == []


def test_exports_equal_the_imported_names():
    imported = [
        alias.asname or alias.name
        for node in INIT.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(set(ilim.__all__)) == len(ilim.__all__)
    assert set(ilim.__all__) == set(imported)

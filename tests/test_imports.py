"""Modules of the package share code only through public names: no module
imports a ``_``-prefixed name from another ``synchro`` module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "synchro"


def private_imports(source):
    """Names starting with ``_`` that ``source`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "synchro":
            continue
        found += [
            f"line {node.lineno}: {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_scanner_flags_private_imports():
    source = (
        "from .cones import _escapes_polar, ell\n"
        "from synchro.automaton import _helper\n"
        "from __future__ import annotations\n"
        "from collections import _private\n"
    )
    assert private_imports(source) == ["line 1: _escapes_polar", "line 2: _helper"]


def test_no_cross_module_private_imports():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    found = {path.name: private_imports(path.read_text()) for path in paths}
    assert not {name: hits for name, hits in found.items() if hits}

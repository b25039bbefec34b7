"""Ranks and complements run on integer elimination, and the cone LP,
``linalg._cone_lp_feasible``, is a fraction-free simplex on integer rows.
An AST scan pins that: ``Fraction`` may be named nowhere in the package."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "synchro"


def fraction_uses(source, module):
    """``module.function:line`` (or ``module:line`` at module level) for each
    reference to ``Fraction`` in ``source``, by name, attribute or import."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        hit = (
            (isinstance(node, ast.Name) and node.id == "Fraction")
            or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
            or (isinstance(node, ast.alias) and node.name == "Fraction")
        )
        if hit:
            found.append(f"{owner}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), module)
    return found


def test_scanner_finds_every_reference():
    source = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "X = fractions.Fraction(1, 2)\n"
        "def f(v: 'int') -> int:\n"
        "    return Fraction(v)\n"
        "class C:\n"
        "    def m(self):\n"
        "        from fractions import Fraction\n"
        "        return [Fraction(0)]\n"
        "def g():\n"
        "    return 'Fraction in a string is not a reference'\n"
    )
    assert fraction_uses(source, "mod") == [
        "mod:1",
        "mod:3",
        "mod.f:5",
        "mod.C.m:8",
        "mod.C.m:9",
    ]


def test_fraction_nowhere_in_the_package():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    found = [hit for p in paths for hit in fraction_uses(p.read_text(), p.stem)]
    assert found == []

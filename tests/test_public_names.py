"""Every public top-level function and class of the library has a reader in
the library: a name that only tests read belongs with the tests
(``tests/oracles.py``), so the public API keeps only what production code
uses.  Re-exports in ``__init__`` do not count as reads."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "synchro"

# public names kept with no reader in the library, each with its reason
TRACED_BY_PERFBENCH = (
    "perfbench/spans.py traces it; tests/test_perfbench_contract.py requires it"
)
ALLOWED = {
    "cones.ell": TRACED_BY_PERFBENCH,
    "linalg.in_cone": TRACED_BY_PERFBENCH,
    "linalg.orthogonal_complement": TRACED_BY_PERFBENCH,
    "linalg.span_basis": TRACED_BY_PERFBENCH,
}


def unread(sources):
    """``module.name`` for each public top-level ``def`` or ``class`` in
    ``sources`` (module name -> source text) that no code loads by name
    outside the definition itself."""
    defined = set()
    readers = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                if not node.name.startswith("_"):
                    defined.add((module, node.name))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    readers.setdefault(sub.id, set()).add((module, owner))
    return {
        f"{module}.{name}"
        for module, name in defined
        if readers.get(name, set()) <= {(module, name)}
    }


def test_scanner_finds_names_without_a_reader():
    sources = {
        "a": (
            "from .b import used_elsewhere\n"
            "def recursive(x):\n"
            "    return recursive(x - 1)\n"
            "def used_here(): pass\n"
            "def caller():\n"
            "    return used_here() + used_elsewhere()\n"
            "class Annotated: pass\n"
            "def typed(x: Annotated): pass\n"
            "def _private(): pass\n"
        ),
        "b": (
            "from .a import imported_only\n"
            "def used_elsewhere(): pass\n"
            "def imported_only(): pass\n"
            "def at_module_level(): pass\n"
            "VALUE = at_module_level()\n"
        ),
    }
    assert unread(sources) == {"a.recursive", "a.caller", "a.typed", "b.imported_only"}


def test_every_public_name_has_a_reader():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
    found = unread(sources)
    assert sorted(found - set(ALLOWED)) == [], "move test-only names to tests/oracles.py"
    assert sorted(set(ALLOWED) - found) == [], "a reader exists now: drop it from ALLOWED"


def traced_names():
    """The ``TRACED`` tuple of ``perfbench/spans.py``, read without importing it."""
    for node in ast.parse((ROOT / "perfbench" / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/spans.py defines no TRACED")


def test_names_kept_for_perfbench_are_traced():
    # once the benchmark stops tracing a name, it needs a library reader or
    # it leaves the library
    kept = {name for name, why in ALLOWED.items() if "perfbench" in why}
    assert sorted(kept - traced_names()) == [], "perfbench no longer traces it"

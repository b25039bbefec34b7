"""Every keyword option of the library is pinned here: a defaulted parameter
of a public function or method is a value a caller can set, so adding or
removing one takes a deliberate edit of ``OPTIONS``.  An entry point computes
each fact once and passes it down, so no public function computes a missing
argument itself either, and only the entry points resolve the permutation
set."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "synchro"

# each option with its reason
OPTIONS = {
    "automaton.reset_threshold_exact(cap)",  # the CLI's --subset-cap and the suites' default
    "cli.main(argv)",  # sys.argv or a caller's list
    "permgroup.resolve_perm_set(letters)",  # every defect-0 letter or --perm-set
    "verify.suite_lemmas(exhaustive_n_max)",  # a param of the golden verify-lemmas report
}

# the modules whose entry points resolve the permutation set; every function
# below them takes the resolved ids and permutations
PERM_SET_RESOLVERS = {"cli", "generate", "verify"}


def defaulted_parameters(func):
    """Names of the parameters of ``func`` that carry a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return names


def public_functions(source, module):
    """``(qualified name, node)`` for each public top-level function and each
    public method of a public class in ``source``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def options(source, module):
    """``module.func(param)`` for each defaulted parameter of a public
    function or method in ``source``."""
    return {
        f"{name}({p})"
        for name, func in public_functions(source, module)
        for p in defaulted_parameters(func)
    }


def _none_tested(test):
    """The name that ``test`` compares ``is None``, else None."""
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Is)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return test.left.id
    return None


def _assigned_names(statements):
    """Names bound by an assignment anywhere inside ``statements``."""
    names = set()
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def compute_if_absent(source, module):
    """``module.func(param)`` for each public function or method in
    ``source`` that assigns to its own parameter inside ``if param is None:``,
    i.e. that computes a missing argument itself instead of taking it from
    its caller."""
    found = set()
    for name, func in public_functions(source, module):
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        for node in ast.walk(func):
            if isinstance(node, ast.If):
                param = _none_tested(node.test)
                if param in params and param in _assigned_names(node.body):
                    found.add(f"{name}({param})")
    return found


def test_scanner_finds_positional_and_keyword_defaults():
    source = (
        "def f(a, b=1, /, c=2, *, d, e=3): pass\n"
        "def _private(x=1): pass\n"
        "class C:\n"
        "    def m(self, y=0): pass\n"
        "    def _h(self, z=0): pass\n"
        "class _D:\n"
        "    def m(self, w=0): pass\n"
        "X = 1\n"
    )
    assert options(source, "mod") == {"mod.f(b)", "mod.f(c)", "mod.f(e)", "mod.C.m(y)"}


def test_library_options_are_pinned():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= options(path.read_text(), path.stem)
    assert sorted(found - OPTIONS) == [], "new option: add it to OPTIONS on purpose"
    assert sorted(OPTIONS - found) == [], "removed option: drop it from OPTIONS"


def test_guard_finds_parameters_computed_if_absent():
    source = (
        "def f(a, b=None, *, c=None, d=None):\n"
        "    if b is None:\n"
        "        b = compute(a)\n"
        "    for _ in a:\n"
        "        if c is None:\n"
        "            c, e = 1, 2\n"
        "    if d is None:\n"
        "        raise ValueError(d)\n"
        "def g(x=None):\n"
        "    y = None\n"
        "    if y is None:\n"
        "        y = 1\n"
        "    if x is not None:\n"
        "        x = 2\n"
        "    if x is None:\n"
        "        z = 3\n"
        "def _private(p=None):\n"
        "    if p is None:\n"
        "        p = 1\n"
        "class C:\n"
        "    def m(self, q):\n"
        "        if q is None:\n"
        "            q += 1\n"
    )
    assert compute_if_absent(source, "mod") == {"mod.f(b)", "mod.f(c)", "mod.C.m(q)"}


def test_no_parameter_is_computed_if_absent():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= compute_if_absent(path.read_text(), path.stem)
    assert sorted(found) == [], "take the value from the caller instead of computing it"


def calls(source, name):
    """Whether ``source`` calls ``name``, bare or as an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                return True
    return False


def test_scanner_finds_calls():
    assert calls("def f(aut):\n    return g(resolve(aut))[1]\n", "resolve")
    assert calls("x = permgroup.resolve(aut)\n", "resolve")
    assert not calls("from m import resolve\nx = resolve\ndef resolve(): pass\n", "resolve")


def test_only_entry_points_resolve_the_perm_set():
    found = {
        path.stem for path in SRC.glob("*.py") if calls(path.read_text(), "resolve_perm_set")
    }
    assert sorted(found - PERM_SET_RESOLVERS) == [], "take the resolved set from the caller"

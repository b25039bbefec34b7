"""Every keyword option of the library is pinned here: a defaulted parameter
of a public function or method is a value a caller can set, so adding or
removing one takes a deliberate edit of ``OPTIONS``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "synchro"

OPTIONS = {
    "automaton.reset_threshold_exact(cap)",
    "bounds.bound_main(a_set)",
    "bounds.bound_main(cone)",
    "bounds.bound_rystsov(a_set)",
    "bounds.bound_rystsov(cap)",
    "bounds.build_bounds_report(a_set)",
    "bounds.build_bounds_report(cone)",
    "bounds.build_bounds_report(group_cap)",
    "bounds.build_bounds_report(subset_cap)",
    "bounds.build_bounds_report(with_exact)",
    "bounds.synthesize_reset_word(a_set)",
    "cli.main(argv)",
    "cones.cone_sequence(a_set)",
    "cones.ell(a_set)",
    "cones.ell(cone)",
    "cones.ell(s)",
    "generate.enumerate_automata(dedup)",
    "growth.LemmaReport.add(detail)",
    "growth.gamma_growth(a_set)",
    "growth.translen_k_bound(a_set)",
    "growth.translen_k_bound(dim)",
    "growth.verify_growth_lemmas(a_set)",
    "growth.verify_growth_lemmas(trace)",
    "permgroup.cayley_diameters(cap)",
    "permgroup.group_closure(cap)",
    "permgroup.perms_of(letters)",
    "permgroup.resolve_perm_set(letters)",
    "verify.lemma_suite(a_set)",
    "verify.lemma_suite(label)",
    "verify.suite_bounds(count)",
    "verify.suite_bounds(ns)",
    "verify.suite_bounds(seed)",
    "verify.suite_cerny(n_max)",
    "verify.suite_enumerate(letters)",
    "verify.suite_lemmas(count)",
    "verify.suite_lemmas(exhaustive_n_max)",
    "verify.suite_lemmas(ns)",
    "verify.suite_lemmas(seed)",
}


def defaulted_parameters(func):
    """Names of the parameters of ``func`` that carry a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return names


def options(source, module):
    """``module.func(param)`` for each defaulted parameter of a public
    top-level function or public method of a public class in ``source``."""
    found = set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            found |= {f"{module}.{node.name}({p})" for p in defaulted_parameters(node)}
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    found |= {
                        f"{module}.{node.name}.{item.name}({p})"
                        for p in defaulted_parameters(item)
                    }
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

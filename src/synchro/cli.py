"""Command-line interface: analyze, synthesize, rt, verify, generate.

Reports are printed as aligned text by default and as JSON with --json; both
carry identical numeric content, and every word is rendered as a sequence of
letter names.  Errors map to stable nonzero exit codes declared on the
exception classes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .automaton import (
    Automaton,
    DEFAULT_SUBSET_CAP,
    is_strongly_connected,
    is_synchronizing,
    reset_threshold_exact,
    word_image_mask,
)
from .bounds import BoundsReport, build_bounds_report, synthesize_reset_word
from .cones import ConeReport, cone_sequence
from .errors import NotSynchronizing, SynchroError
from .fileformat import emit_automaton, parse_automaton
from .generate import cerny, random_st
from .growth import GrowthTrace, gamma_growth
from .permgroup import DEFAULT_GROUP_CAP, Perm, resolve_perm_set
from .verify import suite_bounds, suite_cerny, suite_enumerate, suite_lemmas


def _positive_int(text: str) -> int:
    """argparse type for caps and counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


_FLAGS = {
    "--json": dict(action="store_true", help="emit a JSON report"),
    "--perm-set": dict(
        metavar="NAMES",
        help="comma-separated permutation letter names (default: all defect-0 letters)",
    ),
    "--exact": dict(
        action="store_true",
        help="also compute the exact reset threshold (subset search)",
    ),
    "--subset-cap": dict(
        type=_positive_int,
        default=DEFAULT_SUBSET_CAP,
        metavar="INT",
        help="visited-subset cap for each pass of the exact threshold search",
    ),
    "--group-cap": dict(
        type=_positive_int,
        default=DEFAULT_GROUP_CAP,
        metavar="INT",
        help="group order cap for diameter-based bounds",
    ),
    "--seed": dict(type=int, default=0, metavar="INT", help="random seed"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Give one subcommand the shared flags it reads, and no others."""
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synchro",
        description="Synchronizing-automata toolkit: exact reset thresholds, "
        "extension-method synthesis, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full structural and bound analysis")
    p_analyze.add_argument("file", help="automaton file")
    _add_flags(p_analyze, "--json", "--perm-set", "--exact", "--subset-cap", "--group-cap")
    p_analyze.set_defaults(subset_cap=None)  # read only with --exact

    p_synth = sub.add_parser("synthesize", help="construct a certified reset word")
    p_synth.add_argument("file", help="automaton file")
    _add_flags(p_synth, "--json", "--perm-set")

    p_rt = sub.add_parser("rt", help="exact reset threshold with witness")
    p_rt.add_argument("file", help="automaton file")
    _add_flags(p_rt, "--json", "--subset-cap")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=("lemmas", "bounds", "cerny", "enumerate"),
    )
    p_verify.add_argument("--n", type=int, default=None, help="state count")
    p_verify.add_argument("--letters", type=int, help="letter count (enumerate; default 2)")
    p_verify.add_argument(
        "--seed-count", type=_positive_int, help="random instances (lemmas, bounds; default 20)"
    )
    _add_flags(p_verify, "--json", "--seed")
    p_verify.set_defaults(seed=None)  # read by lemmas and bounds only; default 0

    p_gen = sub.add_parser("generate", help="emit an automaton file")
    p_gen.add_argument("kind", choices=("cerny", "random-st"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--perm-letters", type=int, help="random-st only; default 1")
    p_gen.add_argument("--defect1-letters", type=int, help="random-st only; default 1")
    p_gen.add_argument("-o", "--out", help="output path (default: stdout)")
    _add_flags(p_gen, "--seed")
    p_gen.set_defaults(seed=None)  # read by random-st only; default 0

    return parser


# The verify flags each suite reads besides --n and --json.
_SUITE_FLAGS = {
    "cerny": (),
    "enumerate": ("letters",),
    "bounds": ("seed_count", "seed"),
    "lemmas": ("seed_count", "seed"),
}


def _unread_flags(args: argparse.Namespace) -> str | None:
    """Why this invocation rejects given flags that it does not read, or None."""
    if args.command == "verify":
        dests = [d for d in ("letters", "seed_count", "seed") if d not in _SUITE_FLAGS[args.suite]]
        when = f"with --suite {args.suite}"
    elif args.command == "analyze" and not args.exact:
        dests, when = ["subset_cap"], "without --exact"
    elif args.command == "generate" and args.kind == "cerny":
        dests, when = ["seed", "perm_letters", "defect1_letters"], "for cerny"
    else:
        return None
    given = ["--" + d.replace("_", "-") for d in dests if getattr(args, d) is not None]
    return f"{args.command} does not read {', '.join(given)} {when}" if given else None


def _read_automaton(path: str) -> Automaton:
    with open(path, "r", encoding="ascii") as handle:
        return parse_automaton(handle.read())


def _resolve_perm_set(
    aut: Automaton, names: str | None
) -> tuple[tuple[int, ...], tuple[Perm, ...]]:
    if names is None:
        return resolve_perm_set(aut)
    return resolve_perm_set(aut, [aut.letter_index(nm.strip()) for nm in names.split(",")])


def _automaton_dict(aut: Automaton) -> dict:
    return {
        "n": aut.n,
        "letters": list(aut.letters),
        "rows": [list(row) for row in aut.rows()],
    }


def _cone_dict(cone: ConeReport, aut: Automaton) -> dict:
    return {
        "trans_len_t": cone.trans_len_t,
        "trans_len_k": cone.trans_len_k,
        "is_subspace": cone.is_subspace,
        "dim": cone.span_dim,
        "polar_dim": cone.n - cone.span_dim,
        "limit_generator_count": len(cone.limit_generators),
        "deficient_letters": [aut.letters[a] for a in cone.deficient],
    }


def _growth_dict(trace: GrowthTrace) -> dict:
    return {
        "transient": trace.transient,
        "d": trace.d,
        "levels": [
            {
                "arcs": len(g.arcs),
                "strong_components": len(deco.sccs),
                "weak_components": len(deco.wccs),
                "sinks": deco.sink_count,
                "sources": deco.source_count,
            }
            for g, deco in zip(trace.levels, trace.decompositions)
        ],
    }


def _bounds_dict(report: BoundsReport, aut: Automaton) -> dict:
    cone = report.cone
    return {
        "n": cone.n,
        "perm_set": [aut.letters[a] for a in cone.a_letters],
        "dim": cone.span_dim,
        "trans_len_k": cone.trans_len_k,
        "trans_len_t": cone.trans_len_t,
        "group_order": report.group_order,
        "d_exact_power": report.d_exact_power,
        "d_prefix_closed": report.d_prefix_closed,
        "bound_main": report.bound_main,
        "bound_rystsov_exact": report.bound_rystsov_exact,
        "bound_rystsov_prefix": report.bound_rystsov_prefix,
        "bound_defect1": report.bound_defect1,
        "square_bound": report.square_bound,
    }


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_analyze(args: argparse.Namespace) -> int:
    aut = _read_automaton(args.file)
    a_ids, perms = _resolve_perm_set(aut, args.perm_set)
    sync = is_synchronizing(aut)
    if not sync:
        raise NotSynchronizing("automaton admits no reset word")
    cone = cone_sequence(aut, a_ids, perms)
    try:
        trace = gamma_growth(aut, cone.perms)
        growth = _growth_dict(trace)
        growth_reason = None
    except SynchroError as exc:
        growth = None
        growth_reason = str(exc)
    bounds = _bounds_dict(build_bounds_report(aut, cone, args.group_cap), aut)
    bounds["rt_exact"] = bounds["rt_witness"] = None
    if args.exact:
        rt, witness = reset_threshold_exact(aut, args.subset_cap or DEFAULT_SUBSET_CAP)
        bounds["rt_exact"], bounds["rt_witness"] = rt, aut.word_names(witness)
    report = {
        "command": "analyze",
        "automaton": _automaton_dict(aut),
        "perm_set": [aut.letters[a] for a in a_ids],
        "defect_profile": {
            name: d for name, d in zip(aut.letters, aut.letter_defects)
        },
        "is_synchronizing": sync,
        "is_strongly_connected": is_strongly_connected(aut),
        "is_transitive": cone.is_subspace,
        "cone": _cone_dict(cone, aut),
        "growth": growth,
        "growth_unavailable_reason": growth_reason,
        "bounds": bounds,
    }
    lines = [
        f"states: {aut.n}",
        f"letters: {' '.join(aut.letters)}",
        "defects: " + " ".join(f"{nm}={d}" for nm, d in zip(aut.letters, aut.letter_defects)),
        f"perm set: {' '.join(report['perm_set'])}",
        f"synchronizing: {sync}",
        f"strongly connected: {report['is_strongly_connected']}",
        f"transitive perm set: {report['is_transitive']}",
        f"cone: dim {cone.span_dim}, transient T {cone.trans_len_t}, transient K {cone.trans_len_k}, "
        f"subspace {cone.is_subspace}",
    ]
    if growth is not None:
        lines.append(
            f"growth: transient {growth['transient']}, limit strong components {growth['d']}"
        )
    else:
        lines.append(f"growth: unavailable ({growth_reason})")
    b = report["bounds"]
    lines.append(
        f"bounds: main {b['bound_main']}, square {b['square_bound']}, "
        f"rystsov {b['bound_rystsov_exact']}/{b['bound_rystsov_prefix']}, "
        f"defect1 {b['bound_defect1']}"
    )
    if b["rt_exact"] is not None:
        witness = "".join(b["rt_witness"]) if b["rt_witness"] else ""
        lines.append(f"reset threshold: {b['rt_exact']} (witness {witness!r})")
    _emit(report, args.json, lines)
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    aut = _read_automaton(args.file)
    a_ids, perms = _resolve_perm_set(aut, args.perm_set)
    result = synthesize_reset_word(aut, a_ids, perms)
    report = {
        "command": "synthesize",
        "automaton": _automaton_dict(aut),
        "perm_set": [aut.letters[a] for a in a_ids],
        "word": aut.word_names(result.word),
        "length": result.length,
        "bound": result.bound,
        "dim": result.cone.span_dim,
        "trans_len_k": result.cone.trans_len_k,
        "verified": result.verified,
        "within_bound": result.within_bound,
        "steps": [
            {
                "word": aut.word_names(step.word),
                "size_before": step.size_before,
                "size_after": step.size_after,
                "escape_length": step.escape_length,
            }
            for step in result.steps
        ],
    }
    lines = [
        f"reset word: {aut.format_word(result.word)}",
        f"length: {result.length} (bound {result.bound}, verified {result.verified})",
        f"cone: dim {result.cone.span_dim}, transient K {result.cone.trans_len_k}",
    ]
    for i, step in enumerate(result.steps):
        esc = "seed" if step.escape_length is None else f"escape {step.escape_length}"
        lines.append(
            f"step {i}: |S| {step.size_before} -> {step.size_after} via "
            f"{aut.format_word(step.word)!r} ({esc})"
        )
    _emit(report, args.json, lines)
    return 0


def cmd_rt(args: argparse.Namespace) -> int:
    aut = _read_automaton(args.file)
    rt, witness = reset_threshold_exact(aut, cap=args.subset_cap)
    verified = word_image_mask(aut, aut.full_mask, witness).bit_count() == 1
    report = {
        "command": "rt",
        "automaton": _automaton_dict(aut),
        "reset_threshold": rt,
        "witness": aut.word_names(witness),
        "witness_verified": verified,
    }
    lines = [
        f"reset threshold: {rt}",
        f"witness: {aut.format_word(witness)} (verified {verified})",
    ]
    _emit(report, args.json, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "cerny":
        suite = suite_cerny(8 if args.n is None else args.n)
    elif args.suite == "enumerate":
        if args.n is None:
            raise ValueError("--n is required for the enumerate suite")
        suite = suite_enumerate(args.n, 2 if args.letters is None else args.letters)
    else:
        ns = (5, 6, 7, 8, 9, 10) if args.n is None else (args.n,)
        run = suite_bounds if args.suite == "bounds" else suite_lemmas
        suite = run(args.seed_count or 20, ns, args.seed or 0)
    report = {
        "command": "verify",
        "suite": suite.suite,
        "seed": suite.seed,
        "params": suite.params,
        "checked": suite.checked,
        "ok": suite.ok,
        "failures": suite.failures,
        "details": suite.details,
    }
    lines = [
        f"suite: {suite.suite}",
        f"seed: {suite.seed}",
        f"instances checked: {suite.checked}",
        f"result: {'PASS' if suite.ok else 'FAIL'}",
    ]
    lines.extend(f"failure: {f}" for f in suite.failures)
    _emit(report, args.json, lines)
    return 0 if suite.ok else 1


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "cerny":
        aut = cerny(args.n)
    else:
        aut = random_st(
            args.n,
            1 if args.perm_letters is None else args.perm_letters,
            1 if args.defect1_letters is None else args.defect1_letters,
            args.seed or 0,
        )
    text = emit_automaton(aut)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unread = _unread_flags(args)
    if unread:
        parser.error(unread)
    handlers = {
        "analyze": cmd_analyze,
        "synthesize": cmd_synthesize,
        "rt": cmd_rt,
        "verify": cmd_verify,
        "generate": cmd_generate,
    }
    try:
        return handlers[args.command](args)
    except SynchroError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

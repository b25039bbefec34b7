"""Byte-for-byte regression corpus of CLI JSON reports.

Each case runs ``synchro.cli.main`` with ``--json`` on a fixed automaton or
suite and compares stdout with the committed report in ``tests/golden``.  A
refactor that keeps behaviour keeps every report identical.  Rewrite the
corpus only for an intended report change, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from synchro.automaton import Automaton
from synchro.cli import main
from synchro.fileformat import emit_automaton
from synchro.generate import cerny, random_st
from synchro.verify import random_st_batch

GOLDEN_DIR = Path(__file__).parent / "golden"

# the group cap keeps analyze off the 10^6-element groups of some instances
FILE_COMMANDS = (
    ("analyze", "--exact", "--group-cap", "20000"),
    ("synthesize",),
    ("rt",),
)


def _automata() -> list[tuple[str, Automaton]]:
    out = [(f"cerny{n}", cerny(n)) for n in range(2, 13)]
    for i, (_, aut) in enumerate(random_st_batch(20, range(5, 11), seed=2024)):
        out.append((f"st{i:02d}-n{aut.n}", aut))
    # synthesis needs a nonzero polar escape on these (limit dimension < n - 1)
    for n, perm_letters, defect1_letters, seed in (
        (6, 1, 2, 1014768378),
        (6, 1, 2, 783178257),
        (8, 2, 1, 662762343),
        (10, 1, 1, 786923726),
    ):
        out.append((f"escape-n{n}-s{seed}", random_st(n, perm_letters, defect1_letters, seed)))
    # letters of defect 2 and 3 under a transitive group
    out.append((
        "defect2-n6",
        Automaton(
            ("a", "b", "c"),
            ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5), (0, 0, 2, 2, 4, 5)),
        ),
    ))
    out.append((
        "defect3-n7",
        Automaton(
            ("a", "b"),
            ((1, 2, 3, 4, 5, 6, 0), (0, 0, 2, 2, 4, 4, 6)),
        ),
    ))
    return out


def _cases() -> list[tuple[str, Automaton | None, tuple[str, ...]]]:
    cases = [
        (f"{label}-{cmd[0]}", aut, cmd)
        for label, aut in _automata()
        for cmd in FILE_COMMANDS
    ]
    for suite in ("bounds", "lemmas"):
        cases.append((f"verify-{suite}", None, ("verify", "--suite", suite, "--seed-count", "6")))
    return cases


CASES = _cases()


def run_case(aut: Automaton | None, cmd: tuple[str, ...], workdir: Path) -> tuple[int, str]:
    """Exit code and stdout of one CLI call."""
    argv = [cmd[0]]
    if aut is not None:
        path = workdir / "automaton.txt"
        path.write_text(emit_automaton(aut), encoding="ascii")
        argv.append(str(path))
    argv += [*cmd[1:], "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,aut,cmd", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, aut, cmd, tmp_path):
    code, out = run_case(aut, cmd, tmp_path)
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="ascii")


def test_corpus_has_no_stale_files():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(c[0] for c in CASES)


def write_corpus() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, aut, cmd in CASES:
            code, out = run_case(aut, cmd, Path(workdir))
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            (GOLDEN_DIR / f"{name}.json").write_text(out, encoding="ascii")


if __name__ == "__main__":
    write_corpus()
    print(f"wrote {len(CASES)} reports to {GOLDEN_DIR}", file=sys.stderr)

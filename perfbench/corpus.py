"""Seeded corpora for the benchmark workloads.

Every instance is drawn from the workload seed and written as an automaton
file, so the measured CLI call parses its input like any user call does.
Corpora are built in blocks: each block holds one instance per stratum
(family and size class), so any run that completes whole blocks has the same
mix of work whatever the seed.  The seed changes which sizes and tables fill
the strata, not how many of each kind there are.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Iterator

# Wall seconds one block takes on the parent commit (2-core Xeon).  These
# only size the corpus and the traced op list; no metric depends on them.
BLOCK_SECONDS = {"synthesis": 2.9, "threshold": 2.1, "sweep": 0.65}

ORBIT_N = 8
ORBIT_DEFECTS = (2, 3)
ST_CONFIGS = ((1, 1), (1, 2), (2, 1), (2, 2))
# Small sizes appear twice so that a 30 s run holds at least 100 rt calls.
THRESHOLD_SIZES = (12, 12, 13, 13, 14, 14, 15, 16, 17)


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must satisfy."""

    label: str
    argv: tuple[str, ...]
    family: str
    letters: tuple[str, ...] = ()
    table: tuple[tuple[int, ...], ...] = ()  # 0-based images, as written to the file
    seed_count: int = 0

    @property
    def n(self) -> int:
        return len(self.table[0]) if self.table else 0


def _cycle(rng: random.Random, values) -> Iterator:
    """Endless passes over ``values``, each pass in a fresh shuffled order."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _write(workdir: str, index: int, label: str, letters, table) -> str:
    path = os.path.join(workdir, f"{index:04d}-{label}.txt")
    lines = [f"{len(table[0])} {len(table)}"]
    lines += [name + " " + " ".join(str(q + 1) for q in row) for name, row in zip(letters, table)]
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def orbit_instance(synchro, n: int, defect: int, rng: random.Random):
    """Two random permutations acting transitively plus one letter that merges
    ``defect`` disjoint pairs of states, redrawn until synchronizing.

    ``synchro.generate`` has no such family: its random letters have defect at
    most one, whose k-vector orbit is small.  Under a big group the k-vector of
    a letter merging 2 or 3 pairs has an orbit of 420 or 560 vectors (n = 8),
    which is the work the cone engine does.  Letters with a fiber of 3 or more
    states cost up to ten times more on some draws, so they are left out to
    keep the run-to-run spread small.
    """
    Automaton = synchro.automaton.Automaton
    while True:
        perms = [tuple(rng.sample(range(n), n)) for _ in range(2)]
        if not synchro.permgroup.is_transitive(perms, n):
            continue
        order = rng.sample(range(n), n)
        image = rng.sample(range(n), n - defect)
        row = [0] * n
        for i, img in enumerate(image):
            row[order[i]] = img
            if i < defect:
                row[order[n - 1 - i]] = img
        aut = Automaton(("a", "b", "c"), (*perms, tuple(row)))
        if synchro.automaton.is_synchronizing(aut):
            return aut


def _file_op(workdir, index, command, label, family, aut) -> Op:
    path = _write(workdir, index, label, aut.letters, aut.table)
    return Op(label, (command, path, "--json"), family, tuple(aut.letters), tuple(aut.table))


def synthesis_ops(synchro, seed: int, blocks: int, workdir: str) -> list[Op]:
    """Per block: one cerny(n) from each of n 32..42, 43..53 and 54..64, one
    orbit instance (n 8) of each defect in ORBIT_DEFECTS and 8
    random_st(14..24, 2, 2), in shuffled order.  Ten blocks draw ten of the
    eleven sizes of each cerny stratum, so the slow tail barely depends on
    the seed."""
    rng = random.Random(seed)
    cerny_ns = tuple(_cycle(rng, range(lo, lo + 11)) for lo in (32, 43, 54))
    st_ns = _cycle(rng, range(14, 25))
    ops: list[Op] = []
    for _ in range(blocks):
        kinds = [("cerny", i) for i in range(3)] + [("orbit", d) for d in ORBIT_DEFECTS] + [("random_st", 0)] * 8
        rng.shuffle(kinds)
        for kind, arg in kinds:
            if kind == "cerny":
                n = next(cerny_ns[arg])
                aut, label = synchro.generate.cerny(n), f"cerny{n}"
            elif kind == "orbit":
                aut = orbit_instance(synchro, ORBIT_N, arg, rng)
                label = f"orbit{ORBIT_N}-d{arg}"
            else:
                n, s = next(st_ns), rng.randrange(1 << 30)
                aut, label = synchro.generate.random_st(n, 2, 2, s), f"st{n}-p2-d2-s{s}"
            ops.append(_file_op(workdir, len(ops), "synthesize", label, kind, aut))
    return ops


def threshold_ops(synchro, seed: int, blocks: int, workdir: str) -> list[Op]:
    """Per block: one instance for each size in THRESHOLD_SIZES.  Every slot
    rotates through cerny and the four random_st(n, 1..2, 1..2) shapes, so
    five consecutive blocks hold every (size, shape) pair once per slot."""
    rng = random.Random(seed)
    shapes = ("cerny",) + ST_CONFIGS
    offsets = [rng.randrange(len(shapes)) for _ in THRESHOLD_SIZES]
    ops: list[Op] = []
    for b in range(blocks):
        slots = list(range(len(THRESHOLD_SIZES)))
        rng.shuffle(slots)
        for slot in slots:
            n = THRESHOLD_SIZES[slot]
            shape = shapes[(b + offsets[slot]) % len(shapes)]
            if shape == "cerny":
                aut, label, kind = synchro.generate.cerny(n), f"cerny{n}", "cerny"
            else:
                p, d = shape
                s = rng.randrange(1 << 30)
                aut = synchro.generate.random_st(n, p, d, s)
                label, kind = f"st{n}-p{p}-d{d}-s{s}", "random_st"
            ops.append(_file_op(workdir, len(ops), "rt", label, kind, aut))
    return ops


def sweep_ops(synchro, seed: int, blocks: int, workdir: str) -> list[Op]:
    """Per block: seed counts 1..6 in shuffled order, each as a bounds call
    followed by a lemmas call, every call with its own derived seed and the
    default state counts 5..10."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for _ in range(blocks):
        counts = list(range(1, 7))
        rng.shuffle(counts)
        for count in counts:
            for suite in ("bounds", "lemmas"):
                s = rng.randrange(1 << 30)
                argv = ("verify", "--suite", suite, "--seed-count", str(count), "--seed", str(s), "--json")
                ops.append(Op(f"{suite}-c{count}-s{s}", argv, suite, seed_count=count))
    return ops


BUILDERS = {"synthesis": synthesis_ops, "threshold": threshold_ops, "sweep": sweep_ops}
WORKLOADS = tuple(BUILDERS)

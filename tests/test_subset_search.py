"""``automaton.subset_search`` is the one level-order search of the subset
lattice: ``reset_threshold_exact`` runs it forward from the full set and
``cones.polar_escape`` backward from one subset, and ``cones.ell_all``
decides every subset level by level without a queue.

The FIFO loops these replaced are kept in ``tests/oracles.py`` as the
references.  The escape cap is pinned at its boundary, and a guard fails
when a queue-driven search appears in the library outside the pair-graph
test of ``is_synchronizing``, which does not search subsets.
"""

import ast
import pathlib
import random

import pytest

from synchro import cones
from synchro.automaton import Automaton, is_synchronizing, word_preimage_mask
from synchro.cli import main
from synchro.cones import _escapes_polar, cone_sequence, ell_all, polar_escape
from synchro.errors import ResourceCap
from synchro.fileformat import emit_automaton
from synchro.generate import cerny, random_st
from synchro.verify import random_st_batch

from conftest import count_calls
from oracles import reference_ell_all, reference_polar_escape, with_perm_set
from test_cones import orbit_instance

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "synchro"

# the golden escape-* seeds (n, permutation letters, defect-1 letters, seed):
# their limit cones have rank below n - 1, so some subsets walk before they
# escape
ESCAPE_SEEDS = (
    (6, 1, 2, 1014768378),
    (6, 1, 2, 783178257),
    (8, 2, 1, 662762343),
    (10, 1, 1, 786923726),
)
# on the last seed, this subset escapes after 3 letters
DEEP_ESCAPE = (ESCAPE_SEEDS[3], 0b111111011, 3)


class TestPolarEscapeMatchesReference:
    @staticmethod
    def check(aut, masks):
        supports = cone_sequence(*with_perm_set(aut)).escape_supports
        lengths = []
        for mask in masks:
            got = polar_escape(aut, supports, mask)
            assert got == reference_polar_escape(aut, supports, mask), (aut.table, mask)
            assert _escapes_polar(supports, word_preimage_mask(aut, mask, got[1]))
            lengths.append(got[0])
        return lengths

    def test_orbit_instances(self):
        rng = random.Random(28)
        for n in range(6, 11):
            for fibers in ((2, 2), (3,)):
                masks = [rng.randrange(1, (1 << n) - 1) for _ in range(20)]
                self.check(orbit_instance(rng, n, fibers), masks)

    def test_random_st_batch(self):
        rng = random.Random(29)
        for _, aut in random_st_batch(30, range(5, 11), 28):
            if is_synchronizing(aut):
                masks = [rng.randrange(1, (1 << aut.n) - 1) for _ in range(20)]
                self.check(aut, masks)

    def test_escape_seeds_on_every_subset(self):
        longest = 0
        for seed in ESCAPE_SEEDS:
            aut = random_st(*seed)
            longest = max(longest, *self.check(aut, range(1, aut.full_mask)))
        assert longest == 3


def ell_all_instances():
    yield cerny(6)
    for seed in ESCAPE_SEEDS:
        yield random_st(*seed)
    yield from (aut for _, aut in random_st_batch(6, range(5, 9), 31))
    yield orbit_instance(random.Random(32), 7, (2, 2))
    # not synchronizing: the subsets holding state 3 never escape
    yield Automaton.from_rows(("a", "b"), ((2, 1, 3), (1, 1, 3)))


class TestEllAll:
    def test_distances_match_the_reference_and_steps_descend(self):
        walked = unreachable = 0
        for aut in ell_all_instances():
            vectors = cone_sequence(*with_perm_set(aut)).limit_vectors
            dist, step = ell_all(aut, vectors)
            assert dist == reference_ell_all(aut, vectors)[0], aut.table
            tables = aut.preimage_mask_table
            for m, d in enumerate(dist):
                if not d:
                    assert step[m] is None
                    unreachable += d is None
                    continue
                walked += 1
                a, u = step[m]
                assert tables[a][m] == u and dist[u] == d - 1
                # the lowest letter that reaches the previous level
                assert all(dist[tab[m]] != d - 1 for tab in tables[:a])
        assert walked > 0 and unreachable > 0


class TestEscapeCap:
    def test_raises_one_below_the_visited_count(self, monkeypatch):
        seed, mask, length = DEEP_ESCAPE
        aut = random_st(*seed)
        supports = cone_sequence(*with_perm_set(aut)).escape_supports
        expected = reference_polar_escape(aut, supports, mask)
        assert expected[0] == length
        # the goal is tested once on every subset the search visits, the
        # escaping one last; the cap counts the ones before it
        counts = count_calls(monkeypatch, "cones._escapes_polar")
        assert polar_escape(aut, supports, mask) == expected
        visited = counts["_escapes_polar"] - 1
        monkeypatch.setattr(cones, "DEFAULT_SUBSET_CAP", visited - 1)
        with pytest.raises(ResourceCap) as info:
            polar_escape(aut, supports, mask)
        message = str(info.value)
        assert message.startswith(
            f"subset search visited {visited} subsets, over the cap of {visited - 1}, "
        )
        assert message.endswith("without a subset outside the polar cone")
        monkeypatch.setattr(cones, "DEFAULT_SUBSET_CAP", visited)
        assert polar_escape(aut, supports, mask) == expected

    def test_synthesize_exits_5(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "escape.txt"
        path.write_text(emit_automaton(random_st(*ESCAPE_SEEDS[0])))
        monkeypatch.setattr(cones, "DEFAULT_SUBSET_CAP", 2)
        assert main(["synthesize", str(path)]) == ResourceCap.exit_code
        assert "without a subset outside the polar cone" in capsys.readouterr().err
        monkeypatch.setattr(cones, "DEFAULT_SUBSET_CAP", 3)
        assert main(["synthesize", str(path)]) == 0


# where the library may name ``deque``, with the reason
QUEUES_ALLOWED = {
    "automaton": "imports it for is_synchronizing",
    "automaton.is_synchronizing": "the pair-graph closure, not a subset search",
}


def deque_names(source, module):
    """Where ``source`` names ``deque``: ``module.func`` for each top-level
    function (``module.Class.method`` for a method) that does, nested
    functions included, and ``module`` for a name or import outside any
    function."""
    found = set()

    def visit(node, owner, in_function):
        for child in ast.iter_child_nodes(node):
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if defines and not in_function:
                visit(child, f"{owner}.{child.name}", not isinstance(child, ast.ClassDef))
                continue
            if (
                isinstance(child, ast.Name) and child.id == "deque"
                or isinstance(child, ast.Attribute) and child.attr == "deque"
                or isinstance(child, ast.alias) and child.name == "deque"
            ):
                found.add(owner)
            visit(child, owner, in_function)

    visit(ast.parse(source), module, False)
    return found


def test_guard_finds_every_deque():
    source = (
        "from collections import deque\n"
        "import collections\n"
        "def bfs():\n"
        "    queue = deque()\n"
        "class A:\n"
        "    def method(self):\n"
        "        return collections.deque()\n"
        "def nested():\n"
        "    def inner():\n"
        "        from collections import deque as q\n"
        "def fine(dequeue):\n"
        "    return 'deque', dequeue\n"
    )
    assert deque_names(source, "mod") == {"mod", "mod.bfs", "mod.A.method", "mod.nested"}


def test_one_subset_search_loop():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= deque_names(path.read_text(), path.stem)
    assert sorted(found - set(QUEUES_ALLOWED)) == [], (
        "search the subset lattice with automaton.subset_search"
    )

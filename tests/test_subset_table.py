"""``automaton.subset_table`` is the one home of the subset-indexed tables.

Its tables must equal the low-bit loops it replaced, kept in
``tests/oracles.py``, for sums (negative values included) and for ORs of
masks.  The guard below fails when a function of the library other than
``subset_table`` writes the low-bit recurrence ``tab[m] = tab[m ^ low] op v``
again: an assignment to a subscript whose value reads a subscript indexed by
an ``x ^ y`` expression.
"""

import ast
import pathlib
import random
from operator import add, or_

import pytest

from synchro.automaton import subset_table

from conftest import random_automaton
from oracles import reference_preimage_table, reference_subset_sums

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "synchro"


@pytest.mark.parametrize("n", range(15))
def test_sums_equal_the_low_bit_loop(n):
    rng = random.Random(7000 + n)
    vector = [rng.randint(-5, 5) for _ in range(n)]
    assert subset_table(vector, add) == reference_subset_sums(vector, 1 << n)


@pytest.mark.parametrize("n", range(15))
def test_ors_equal_the_low_bit_loop(n):
    rng = random.Random(8000 + n)
    masks = [rng.randrange(1 << 20) for _ in range(n)]
    assert subset_table(masks, or_) == reference_preimage_table(masks)


@pytest.mark.parametrize("n", range(1, 15))
def test_preimage_mask_table_equals_the_low_bit_loop(n):
    aut = random_automaton(random.Random(9000 + n), n, 2)
    tables = aut.preimage_mask_table
    assert len(tables) == 2
    for tab, masks in zip(tables, aut.preimage_state_masks):
        assert tab == reference_preimage_table(masks)


def _xor_indexed(node):
    """True iff ``node`` contains a subscript indexed by an ``x ^ y`` expression."""
    return any(
        isinstance(sub, ast.Subscript)
        and isinstance(sub.slice, ast.BinOp)
        and isinstance(sub.slice.op, ast.BitXor)
        for sub in ast.walk(node)
    )


def table_recurrences(source, module):
    """``module.func`` for each function in ``source`` that assigns to a
    subscript from a subscript indexed by an ``x ^ y`` expression."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Subscript) for t in targets) and _xor_indexed(node.value):
                found.add(f"{module}.{func.name}")
    return found


def test_guard_finds_the_low_bit_recurrence():
    source = (
        "def sums(vector, size):\n"
        "    for mask in range(1, size):\n"
        "        low = mask & -mask\n"
        "        sums[mask] = sums[mask ^ low] + vector[low.bit_length() - 1]\n"
        "class A:\n"
        "    def table(self):\n"
        "        tab[m] |= tab[m ^ low]\n"
        "def fine(mask, low):\n"
        "    mask ^= low\n"
        "    out = tab[mask ^ low]\n"
        "    tab[mask] = mask ^ low\n"
        "    tab[mask ^ low] = 1\n"
    )
    assert table_recurrences(source, "mod") == {"mod.sums", "mod.table"}


def test_only_subset_table_builds_subset_tables():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= table_recurrences(path.read_text(), path.stem)
    assert sorted(found - {"automaton.subset_table"}) == [], (
        "build the table with automaton.subset_table"
    )

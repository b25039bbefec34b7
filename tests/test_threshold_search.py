"""The table-driven subset search against the bit-by-bit loop it replaced.

``reference_threshold`` is the one-deque, one-image-at-a-time breadth-first
search that ``reset_threshold_exact`` used before image tables.  The fast
search must return the identical ``(rt, witness)`` pair, raise at the same
caps, and the image and preimage chunk tables must agree with the bit loops
bit for bit.
"""

import random
from collections import deque
from operator import attrgetter

import pytest

from synchro.automaton import (
    Automaton,
    image_mask,
    is_synchronizing,
    preimage_mask,
    reset_threshold_exact,
)
from synchro.errors import NotSynchronizing, ResourceCap
from synchro.generate import cerny, enumerate_automata, random_st
from synchro.verify import random_st_batch

from conftest import random_automaton
from oracles import reference_image_mask, reference_preimage_mask


def reference_threshold(aut: Automaton, cap: int) -> tuple[int, tuple[int, ...]]:
    """FIFO subset BFS, images by a loop over the mask's bits, ties by letter order."""
    if not is_synchronizing(aut):
        raise NotSynchronizing("automaton admits no reset word")
    full = aut.full_mask
    if full.bit_count() == 1:
        return 0, ()
    k = len(aut.letters)
    parents: dict[int, tuple[int, int]] = {full: (-1, 0)}
    queue = deque([full])
    while queue:
        mask = queue.popleft()
        for a in range(k):
            nxt = reference_image_mask(aut, mask, a)
            if nxt in parents:
                continue
            parents[nxt] = (a, mask)
            if nxt.bit_count() == 1:
                word = []
                cur = nxt
                while cur != full:
                    a_, prev = parents[cur]
                    word.append(a_)
                    cur = prev
                word.reverse()
                return len(word), tuple(word)
            if len(parents) > cap:
                raise ResourceCap(f"reference search exceeded cap of {cap} subsets")
            queue.append(nxt)
    raise NotSynchronizing("automaton admits no reset word")


def outcome(search, aut: Automaton, cap: int = 1 << 22):
    try:
        return search(aut, cap)
    except NotSynchronizing:
        return "not synchronizing"


def smallest_passing_cap(aut: Automaton) -> int:
    """Least cap at which the reference succeeds; it visits at most 2^n subsets."""
    lo, hi = 1, 1 << aut.n
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            reference_threshold(aut, mid)
            hi = mid
        except ResourceCap:
            lo = mid + 1
    return lo


def chunk_image(tables: list[list[list[int]]], mask: int, a: int) -> int:
    out = 0
    for c, tab in enumerate(tables[a]):
        out |= tab[(mask >> 8 * c) & 0xFF]
    return out


class TestMatchesReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_two_letter_table(self, n):
        for aut in enumerate_automata(n, 2):
            assert outcome(reset_threshold_exact, aut) == outcome(reference_threshold, aut)

    def test_random_two_letter_tables_n4(self):
        rng = random.Random(4)
        for _ in range(200):
            aut = random_automaton(rng, 4, 2)
            assert outcome(reset_threshold_exact, aut) == outcome(reference_threshold, aut)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_cerny(self, n):
        aut = cerny(n)
        assert reset_threshold_exact(aut) == reference_threshold(aut, 1 << 22)

    def test_random_st_batch(self):
        for _, aut in random_st_batch(18, range(5, 14), 2024):
            assert reset_threshold_exact(aut) == reference_threshold(aut, 1 << 22)


class TestCapBoundary:
    @pytest.mark.parametrize(
        "aut", [cerny(8), random_st(12, 2, 1, 31)], ids=["cerny8", "st12"]
    )
    def test_raises_just_below_and_succeeds_at_the_reference_cap(self, aut):
        v = smallest_passing_cap(aut)
        assert v > 1
        with pytest.raises(ResourceCap):
            reference_threshold(aut, v - 1)
        with pytest.raises(ResourceCap):
            reset_threshold_exact(aut, cap=v - 1)
        assert reset_threshold_exact(aut, cap=v) == reference_threshold(aut, v)

    def test_message_names_visited_count_and_depth(self):
        # cerny(5): depth 1 adds only b's 4-set (a permutes the full set), and
        # depth 2 adds its rotation by a, the third visited subset.
        with pytest.raises(ResourceCap) as info:
            reset_threshold_exact(cerny(5), cap=2)
        assert str(info.value) == (
            "subset search visited 3 subsets, over the cap of 2, "
            "and reached depth 2 without a singleton"
        )


# (chunk tables, chunked lookup, bit loop) per direction
DIRECTIONS = {
    "image": (attrgetter("image_chunks"), image_mask, reference_image_mask),
    "preimage": (attrgetter("preimage_chunks"), preimage_mask, reference_preimage_mask),
}
CHUNK_NS = [1, 2, 7, 8, 9, 15, 16, 17, 24, 25]


class TestChunkTables:
    @pytest.mark.parametrize(
        "direction, n",
        [("image", n) for n in CHUNK_NS] + [("preimage", n) for n in CHUNK_NS],
        ids=[str(n) for n in CHUNK_NS] + [f"preimage-{n}" for n in CHUNK_NS],
    )
    def test_chunk_image_equals_image_mask(self, direction, n):
        chunk_tables, lookup, bit_loop = DIRECTIONS[direction]
        rng = random.Random(1000 + n)
        aut = random_automaton(rng, n, 3)
        tables = chunk_tables(aut)
        chunks = (n + 7) // 8
        for letter_tables in tables:
            assert len(letter_tables) == chunks
            assert len(letter_tables[-1]) == 1 << (n - 8 * (chunks - 1))
        masks = [aut.full_mask] + [rng.randrange(1, 1 << n) for _ in range(200)]
        for mask in masks:
            for a in range(3):
                expected = bit_loop(aut, mask, a)
                assert chunk_image(tables, mask, a) == expected
                assert lookup(aut, mask, a) == expected
